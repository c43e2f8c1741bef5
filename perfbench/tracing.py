"""Spans and counters around the public functions of ringgraphs' modules.

Everything here acts from outside the package: each traced function is
replaced by a wrapper in every ``ringgraphs`` module namespace that binds it
(the modules import names from each other, so one rebinding is not enough),
and ``LevelContext`` and ring methods are wrapped on their classes.
``restore`` puts every original binding back.

Spans are aggregated per name as they close (calls and self seconds, where
self time is span duration minus the time of spans opened inside it), because
a traced run opens millions of them and keeping each one would cost more
memory than the program under test.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

CLAIM_IDS = (
    "C-EMPTY", "C-GROW", "C-PRIME", "C-FILT", "C-TRI", "C-XI", "C-CONIL",
    "C-VMEM", "C-ADJ17", "C-DESC", "C-IDEM", "C-BIP", "C-ZDGC", "C-SEMI",
)
STATUSES = ("VERIFIED", "REFUTED", "VACUOUS", "UNSUPPORTED")

# metric name -> unit, in print order; every span name has a ".s" entry here,
# so the reported self times plus other.s add up to the traced wall time
LAYER_METRICS = {
    **{f"claims.{cid}.s": "s" for cid in CLAIM_IDS},
    "claims.default_grid.s": "s",
    **{f"claims.status.{st}": "count" for st in STATUSES},
    "conilpotency.conilpotency_record.calls": "count",
    "conilpotency.ring_conilpotency_index.s": "s",
    "graphs.build_level.calls": "count",
    "graphs.build_level.s": "s",
    "graphs.build_level.miss_ratio": "ratio",
    "graphs.pair_checks": "count",
    "graphs.adjacent.calls": "count",
    "graphs.vertices.s": "s",
    "graphs.trajectory.calls": "count",
    "graphs.trajectory.s": "s",
    "graphs.minimal_stabilization_index.s": "s",
    "export.graph_to_json.s": "s",
    "export.bytes": "bytes",
    "export.edges": "count",
    "ideals.span.calls": "count",
    "ideals.span.s": "s",
    "ideals.ideal_sum.calls": "count",
    "ideals.ideal_sum.s": "s",
    "ideals.ideal_sum.new_ratio": "ratio",
    "ideals.interned": "count",
    "ideals.is_maximal.s": "s",
    "ideals.jacobson_radical.s": "s",
    "rings.unit_bits.s": "s",
    "rings.mul.calls": "count",
    "rings.add.calls": "count",
    "rings.pow.calls": "count",
    "analysis.check_partition_claim.s": "s",
    "analysis.complete_multipartite_parts.s": "s",
    "analysis.is_complete.calls": "count",
    "trace.wall_s": "s",
    "other.s": "s",
    "trace.overhead_s": "s",
}

RING_OPS = ("mul", "add", "pow")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ringgraphs" or name.startswith("ringgraphs."))]


class _Patcher:
    """Replaces bindings, remembers how to put them back, counts calls."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.calls: dict[str, int] = defaultdict(int)

    def _counter(self, fn, name):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def everywhere(self, module, name: str, make_wrapper) -> None:
        orig = getattr(module, name)
        wrapper = make_wrapper(orig)
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def on_class(self, cls, name: str, make_wrapper) -> None:
        orig = cls.__dict__[name]
        self._undo.append((cls, name, orig))
        setattr(cls, name, make_wrapper(orig))

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


class Tracer(_Patcher):
    """Self-time spans plus the counters named in ``LAYER_METRICS``."""

    def __init__(self):
        super().__init__()
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []

    def _span(self, fn, name, before=None, after=None, name_of=None):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            key = name if name_of is None else name_of(args)
            state = before(args) if before is not None else None
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[key] += dt - frame[0]
                calls[key] += 1
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, result, state)
            return result

        return wrapper

    def install(self) -> None:
        from ringgraphs import analysis, claims, conilpotency, export, graphs, ideals, rings

        def span(name, **hooks):
            return lambda fn: self._span(fn, name, **hooks)

        def count(name):
            return lambda fn: self._counter(fn, name)

        extra = self.extra

        # a build_level call missed the cache when its context gained a graph
        def graphs_before(args):
            ctx = graphs._CONTEXTS.get((id(args[0]), args[1].bits))
            return 0 if ctx is None else len(ctx._graphs)

        def graphs_after(args, g, before):
            ctx = graphs._CONTEXTS[(id(args[0]), args[1].bits)]
            if len(ctx._graphs) > before:
                n = len(g.vertices)
                extra["graphs.build_level.misses"] += 1
                extra["graphs.pair_checks"] += n * (n - 1) // 2

        def interned_before(args):
            return len(args[0].ring.ideal_intern)

        def interned_after(args, _ideal, before):
            if len(args[0].ring.ideal_intern) > before:
                extra["ideals.ideal_sum.new"] += 1

        def exported(args, text, _state):
            extra["export.bytes"] += len(text.encode())
            extra["export.edges"] += args[0].edge_count

        claim_span = lambda fn: self._span(fn, None, name_of=lambda a: f"claims.{a[0].claim}")
        self.everywhere(claims, "run_claim", claim_span)
        self.everywhere(claims, "default_grid", span("claims.default_grid"))
        self.everywhere(conilpotency, "conilpotency_record",
                        count("conilpotency.conilpotency_record"))
        self.everywhere(conilpotency, "ring_conilpotency_index",
                        span("conilpotency.ring_conilpotency_index"))
        self.everywhere(graphs, "build_level",
                        span("graphs.build_level", before=graphs_before, after=graphs_after))
        self.everywhere(graphs, "minimal_stabilization_index",
                        span("graphs.minimal_stabilization_index"))
        self.on_class(graphs.LevelContext, "vertices", span("graphs.vertices"))
        self.on_class(graphs.LevelContext, "trajectory", span("graphs.trajectory"))
        self.on_class(graphs.LevelContext, "adjacent", count("graphs.adjacent"))
        self.everywhere(export, "graph_to_json", span("export.graph_to_json", after=exported))
        self.everywhere(ideals, "span", span("ideals.span"))
        self.everywhere(ideals, "ideal_sum",
                        span("ideals.ideal_sum", before=interned_before, after=interned_after))
        self.everywhere(ideals, "is_maximal", span("ideals.is_maximal"))
        self.everywhere(ideals, "jacobson_radical", span("ideals.jacobson_radical"))
        self.on_class(rings.Ring, "unit_bits", span("rings.unit_bits"))
        self.everywhere(analysis, "check_partition_claim", span("analysis.check_partition_claim"))
        self.everywhere(analysis, "complete_multipartite_parts",
                        span("analysis.complete_multipartite_parts"))
        self.everywhere(analysis, "is_complete", count("analysis.is_complete"))

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Layer metrics of this trace; ``wall_s`` is the traced wall time."""
        from ringgraphs import rings

        out = dict.fromkeys(LAYER_METRICS, 0)
        for name, seconds in self.self_s.items():
            out[f"{name}.s"] = seconds
        for name, n in self.calls.items():
            if f"{name}.calls" in out:
                out[f"{name}.calls"] = n
        builds = self.calls["graphs.build_level"]
        sums = self.calls["ideals.ideal_sum"]
        out["graphs.build_level.miss_ratio"] = (
            self.extra["graphs.build_level.misses"] / builds if builds else 0.0)
        out["ideals.ideal_sum.new_ratio"] = (
            self.extra["ideals.ideal_sum.new"] / sums if sums else 0.0)
        for name in ("graphs.pair_checks", "export.bytes", "export.edges"):
            out[name] = self.extra[name]
        out["ideals.interned"] = sum(len(r.ideal_intern) for r in rings._RING_CACHE.values())
        out["trace.wall_s"] = wall_s
        out["other.s"] = wall_s - sum(self.self_s.values())
        unknown = set(out) - set(LAYER_METRICS)
        if unknown:
            raise RuntimeError(f"trace produced unlisted metrics {sorted(unknown)}")
        return out


class OpCounter(_Patcher):
    """Call counts of ring arithmetic, kept apart from the timed trace.

    A counter on every ``mul``/``add``/``pow`` inflates their cost by half or
    more, so these counts come from their own pass. Calls a product ring makes
    into its factor rings are counted too.
    """

    def install(self) -> None:
        from ringgraphs import rings

        classes = [rings.Ring]
        while classes:
            cls = classes.pop()
            classes.extend(cls.__subclasses__())
            for op in RING_OPS:
                if op in cls.__dict__:
                    self.on_class(cls, op, lambda fn, op=op: self._counter(fn, f"rings.{op}"))

    def metrics(self) -> dict[str, float]:
        return {f"rings.{op}.calls": self.calls[f"rings.{op}"] for op in RING_OPS}
