"""One cold process: import ringgraphs, run one workload's items, report.

Usage: child.py MODE WORKLOAD LAUNCH SPEC
  MODE    setup (import only), plain (timed), trace (spans), count (ring ops)
  LAUNCH  CLOCK_MONOTONIC reading taken by the parent just before the launch
  SPEC    JSON from workloads.select

Prints one JSON object on its last stdout line. The package's caches are
module-level and never evicted, so a second pass in this process would time
cache hits; every timed pass therefore gets a process of its own.
"""

import sys
import time

_clock = time.perf_counter
_launch = float(sys.argv[3])
import ringgraphs  # noqa: E402  (import time is what setup_s measures)

SETUP_S = time.clock_gettime(time.CLOCK_MONOTONIC) - _launch

import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def verify_grid(spec: dict, out: dict):
    from ringgraphs import claims

    start = _clock()
    try:
        instances = claims.default_grid()
        canonical = list(instances)
        if spec["shuffle"]:
            random.Random(spec["shuffle"]).shuffle(instances)
        result = claims.run_suite(instances, workers=1)
        claims.suite_to_json(result)
    except Exception as exc:  # reported as a failed run, not a crash
        out["errors"]["verify"] = repr(exc)
        return lambda: None
    finally:
        out["wall_s"] = _clock() - start
    out["item_s"] = [rep.elapsed for rep in result.reports]

    def finish():
        by_instance = {rep.instance: rep for rep in result.reports}
        ordered = [by_instance[inst] for inst in canonical]
        for rep in ordered:
            entry = json.dumps(rep.as_dict(), sort_keys=True)
            out["outputs"][workloads.instance_key(rep.instance)] = f"{rep.status}:{_sha(entry)[:16]}"
        # the report in grid order, whatever order the seed ran the instances in
        canon = claims.SuiteResult(ordered, result.summary, result.mismatches)
        out["report_sha256"] = _sha(claims.suite_to_json(canon))
        claim_s: dict[str, float] = {}
        statuses: dict[str, int] = {}
        for rep in ordered:
            claim_s[rep.instance.claim] = claim_s.get(rep.instance.claim, 0.0) + rep.elapsed
            statuses[rep.status] = statuses.get(rep.status, 0) + 1
        out["claim_s"] = claim_s
        out["statuses"] = statuses

    return finish


def extend_zn(spec: dict, out: dict):
    from ringgraphs import EXTENDED, build_level, build_ring, complete_multipartite_parts
    from ringgraphs import is_complete, zero_ideal
    from ringgraphs.export import graph_to_json

    for item in spec["items"]:
        key = workloads.item_key(workloads.EXTEND_ZN, item)
        ring_name, kind = item
        start = _clock()
        try:
            ring = build_ring(ring_name)
            g = build_level(ring, zero_ideal(ring), EXTENDED, kind)
            parts = complete_multipartite_parts(g)
            complete = is_complete(g)
            text = graph_to_json(g)
        except Exception as exc:  # a failing item is counted, the rest still run
            out["errors"][key] = repr(exc)
            continue
        finally:
            out["item_s"].append(_clock() - start)
        out["outputs"][key] = {
            "vertices": len(g.vertices),
            "edges": g.edge_count,
            "level": g.level,
            "parts": None if parts is None else parts.arity,
            "complete": complete,
            "sha256": _sha(text),
        }
        del g, text
    out["wall_s"] = sum(out["item_s"])
    return lambda: None


def stabilize_poly(spec: dict, out: dict):
    from ringgraphs import build_level, build_ring, minimal_stabilization_index
    from ringgraphs import span_from_labels, stabilization_bound

    done = []
    for item in spec["items"]:
        key = workloads.item_key(workloads.STABILIZE_POLY, item)
        ring_name, ideal = item
        start = _clock()
        try:
            ring = build_ring(ring_name)
            J = span_from_labels(ring, ideal)
            bound = stabilization_bound(ring, J)
            sharp = minimal_stabilization_index(ring, J)
        except Exception as exc:  # a failing item is counted, the rest still run
            out["errors"][key] = repr(exc)
            continue
        finally:
            out["item_s"].append(_clock() - start)
        done.append((key, ring, J, bound, sharp))
    out["wall_s"] = sum(out["item_s"])

    def finish():
        for key, ring, J, bound, sharp in done:
            g = build_level(ring, J, bound)
            out["outputs"][key] = {
                "bound": bound,
                "sharp": sharp,
                "vertices": len(g.vertices),
                "edges": g.edge_count,
            }

    return finish


RUNNERS = {
    workloads.VERIFY_GRID: verify_grid,
    workloads.EXTEND_ZN: extend_zn,
    workloads.STABILIZE_POLY: stabilize_poly,
}


def main() -> None:
    mode, workload, spec = sys.argv[1], sys.argv[2], json.loads(sys.argv[4])
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(ringgraphs.__file__).resolve().parents:
        raise SystemExit(f"imported ringgraphs from {ringgraphs.__file__}, not from {src}")
    out = {"mode": mode, "setup_s": SETUP_S}
    if mode != "setup":
        probe = {"trace": tracing.Tracer, "count": tracing.OpCounter}.get(mode)
        if probe is not None:
            probe = probe()
            probe.install()
        out.update(outputs={}, errors={}, item_s=[])
        finish = RUNNERS[workload](spec, out)
        if probe is not None:
            probe.restore()
        finish()
        if mode == "trace":
            out["layers"] = probe.metrics(out["wall_s"])
            for status in tracing.STATUSES:
                out["layers"][f"claims.status.{status}"] = out.get("statuses", {}).get(status, 0)
        elif mode == "count":
            out["layers"] = probe.metrics()
    out["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
