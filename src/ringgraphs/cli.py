"""Command-line surface.

Verbs map straight onto the library: build/zdg materialize one level graph,
analyze reports its shape, stabilize prints the sharp stabilization index,
radical and xi expose the ideal-theoretic helpers, verify runs a claim grid,
and export re-emits a saved graph JSON in another format. A verb imports the
claim harness, conilpotency or shape analysis in its own handler, so the other
verbs never load them.

Exit codes: 0 success, 1 a verify run disagreed with a pinned expectation,
2 malformed input (grammar, carrier cap, a multivariate modulus, bad files).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import export
from .graphs import COZERO, EXTENDED, ZERO, build_level, minimal_stabilization_index, stabilization_bound
from .ideals import jacobson_radical, span_from_labels
from .rings import ParseError, RingError, build_ring, descriptor_string

_INPUT_ERRORS = (RingError, OSError, UnicodeDecodeError)  # the last: a file not in UTF-8

# the graph writers of build, zdg and export, by --format
_WRITERS = {"dot": export.graph_to_dot, "json": export.graph_to_json, "table": export.graph_to_table}


def _parse_level(text: str):
    if text.lower() in ("ext", "extended"):
        return EXTENDED
    try:
        value = int(text)
    except ValueError as exc:
        raise ParseError(f"level must be an integer or 'ext', not {text!r}") from exc
    if value < 1:
        raise ParseError("level must be >= 1 or 'ext'")
    return value


def _add_common(sub: argparse.ArgumentParser, kind_flag: bool = True):
    sub.add_argument("--ring", required=True, help="ring descriptor, e.g. Z12 or Z2[x,y]/(x^3,y^2)")
    sub.add_argument("--ideal", default="0", help="comma-separated generators, or 0")
    if kind_flag:
        sub.add_argument("--kind", choices=[COZERO, ZERO], default=COZERO)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringgraphs",
        description="level graphs of finite commutative rings relative to an ideal",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    p_build = subs.add_parser("build", help="build one level graph and export it")
    _add_common(p_build)
    p_build.add_argument("--i", default="1", help="level (integer >= 1) or 'ext'")
    p_build.add_argument("--format", choices=list(_WRITERS), default="table")
    p_build.add_argument("--out", default=None)
    p_build.set_defaults(run=_cmd_build)

    p_zdg = subs.add_parser("zdg", help="build the zero-divisor variant of the graph")
    _add_common(p_zdg, kind_flag=False)
    p_zdg.add_argument("--i", default="1", help="level (integer >= 1) or 'ext'")
    p_zdg.add_argument("--format", choices=list(_WRITERS), default="table")
    p_zdg.add_argument("--out", default=None)
    p_zdg.set_defaults(run=_cmd_build, kind=ZERO)

    p_an = subs.add_parser("analyze", help="shape predicates of one level graph")
    _add_common(p_an)
    p_an.add_argument("--i", default="1")
    p_an.add_argument("--format", choices=["json", "table"], default="table")
    p_an.add_argument("--out", default=None)
    p_an.set_defaults(run=_cmd_analyze)

    p_st = subs.add_parser("stabilize", help="print the sharp stabilization index")
    _add_common(p_st)
    p_st.add_argument("--format", choices=["json", "table"], default="table")
    p_st.add_argument("--out", default=None)
    p_st.set_defaults(run=_cmd_stabilize)

    p_rad = subs.add_parser("radical", help="print the Jacobson radical")
    p_rad.add_argument("--ring", required=True)
    p_rad.add_argument("--format", choices=["json", "table"], default="table")
    p_rad.add_argument("--out", default=None)
    p_rad.set_defaults(run=_cmd_radical)

    p_xi = subs.add_parser("xi", help="conilpotency indices relative to the ideal")
    _add_common(p_xi, kind_flag=False)
    p_xi.add_argument("--format", choices=["json", "table"], default="table")
    p_xi.add_argument("--out", default=None)
    p_xi.set_defaults(run=_cmd_xi)

    p_ver = subs.add_parser("verify", help="run a claim grid and report statuses")
    p_ver.add_argument("--grid", default="default", help="'default' or a grid JSON path")
    p_ver.add_argument(
        "--threads", type=int, default=None,
        help="accepted for compatibility; instances run in order",
    )
    p_ver.add_argument("--format", choices=["json", "table"], default="json")
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(run=_cmd_verify)

    p_exp = subs.add_parser("export", help="re-emit a saved graph JSON in another format")
    p_exp.add_argument("--in", dest="infile", required=True)
    p_exp.add_argument("--format", choices=list(_WRITERS), default="dot")
    p_exp.add_argument("--out", default=None)
    p_exp.set_defaults(run=_cmd_export)

    return parser


def _emit(text: str, out: Optional[str]):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_build(args) -> int:
    ring = build_ring(args.ring)
    J = span_from_labels(ring, args.ideal)
    g = build_level(ring, J, _parse_level(args.i), args.kind)
    text = _WRITERS[args.format](g)
    if args.format == "table" and g.requested_extended:
        sharp = minimal_stabilization_index(ring, J, args.kind)
        text = text.rstrip("\n") + f"\nsharp stabilization index: {sharp}\n"
    _emit(text, args.out)
    return 0


def _cmd_analyze(args) -> int:
    from . import analysis
    ring = build_ring(args.ring)
    J = span_from_labels(ring, args.ideal)
    g = build_level(ring, J, _parse_level(args.i), args.kind)
    parts = analysis.complete_multipartite_parts(g)
    report = {
        "ring": descriptor_string(ring.descriptor),
        "ideal": J.generator_labels(),
        "kind": g.kind,
        "i": EXTENDED if g.requested_extended else g.level,
        "vertices": len(g.vertices),
        "edges": g.edge_count,
        "is_empty": analysis.is_empty_graph(g),
        "is_complete": analysis.is_complete(g),
        "complete_multipartite_parts": (
            [[ring.label(v) for v in part] for part in parts.parts] if parts else None
        ),
    }
    try:
        valuation = analysis.zpnq_parts(ring)
    except analysis.NotZpnqForm:
        valuation = None
    if valuation is not None and J.bits == 1 and g.kind == COZERO:
        verdict = analysis.check_partition_claim(g, valuation)
        report["valuation_partition"] = {
            "parts": [[ring.label(v) for v in part] for part in valuation.parts],
            "holds": verdict.holds,
            "witness": (
                [ring.label(verdict.witness[0]), ring.label(verdict.witness[1])]
                if verdict.witness
                else None
            ),
            "reason": verdict.reason,
        }
    if args.format == "json":
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = [f"{k}: {json.dumps(v)}" for k, v in report.items()]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_stabilize(args) -> int:
    ring = build_ring(args.ring)
    J = span_from_labels(ring, args.ideal)
    sharp = minimal_stabilization_index(ring, J, args.kind)
    if args.format == "json":
        payload = {
            "ring": descriptor_string(ring.descriptor),
            "ideal": J.generator_labels(),
            "kind": args.kind,
            "stabilization_bound": stabilization_bound(ring, J),
            "minimal_index": sharp,
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit(f"{sharp}\n", args.out)
    return 0


def _cmd_radical(args) -> int:
    ring = build_ring(args.ring)
    jac = jacobson_radical(ring)
    labels = [ring.label(x) for x in jac.members()]
    if args.format == "json":
        payload = {
            "ring": descriptor_string(ring.descriptor),
            "elements": labels,
            "generators": jac.generator_labels(),
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit(",".join(labels) + "\n", args.out)
    return 0


def _cmd_xi(args) -> int:
    from .conilpotency import conilpotency_record
    ring = build_ring(args.ring)
    J = span_from_labels(ring, args.ideal)
    records = [conilpotency_record(ring, J, x) for x in range(ring.size)]
    xi = max((rec.index for rec in records if rec.is_conilpotent), default=None)
    if args.format == "json":
        payload = {
            "ring": descriptor_string(ring.descriptor),
            "ideal": J.generator_labels(),
            "per_element": [
                [ring.label(rec.element), rec.index] for rec in records
            ],
            "xi": xi,
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = [
            f"{ring.label(rec.element)}\t{rec.index if rec.index is not None else '-'}"
            for rec in records
        ]
        lines.append(f"xi(R) = {xi if xi is not None else 'undefined'}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    from . import claims
    if args.grid == "default":
        instances = claims.default_grid()
    else:
        instances = claims.load_grid(args.grid)
    result = claims.run_suite(instances)
    if args.format == "json":
        _emit(claims.suite_to_json(result), args.out)
    else:
        lines = []
        for cid in sorted(result.summary):
            counts = ", ".join(
                f"{status}={n}" for status, n in sorted(result.summary[cid].items())
            )
            lines.append(f"{cid}: {counts}")
        lines.append(f"instances: {len(result.reports)}")
        lines.append(f"mismatches: {len(result.mismatches)}")
        for rep in result.mismatches:
            inst = rep.instance
            lines.append(
                f"  {inst.claim} {inst.ring} ideal={inst.ideal} {dict(inst.params)}: "
                f"expected {inst.expected}, got {rep.status}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if result.mismatches else 0


def _cmd_export(args) -> int:
    with open(args.infile, "r", encoding="utf-8") as fh:
        g = export.load_graph_json(fh.read())
    _emit(_WRITERS[args.format](g), args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.run(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
