"""Serialization of level graphs: JSON, DOT, and the JSON loader.

Both formats enumerate vertices and edges in the same order (carrier index,
then lexicographic index pairs), so exports are deterministic and directly
comparable.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Union

from .graphs import COZERO, EXTENDED, ZERO, GraphLevel, later_items, level_context
from .ideals import span
from .rings import ParseError, Ring, build_ring, descriptor_string


def graph_to_json_dict(g: GraphLevel) -> dict:
    ring = g.ring
    return {
        "ring": descriptor_string(ring.descriptor),
        "ideal": g.ideal.generator_labels(),
        "kind": g.kind,
        "i": EXTENDED if g.requested_extended else g.level,
        "vertices": [ring.label(v) for v in g.vertices],
        "edges": [[ring.label(x), ring.label(y)] for x, y in g.edges()],
    }


def _json_array(items: list[str]) -> str:
    """A top-level JSON array laid out as ``indent=2`` would.

    Each item is already rendered with its own four leading spaces.
    """
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def graph_to_json(g: GraphLevel) -> str:
    """``json.dumps(graph_to_json_dict(g), indent=2, sort_keys=True) + "\n"``.

    The same bytes, written straight from the adjacency rows: each vertex is
    labelled and quoted once, every edge block is a vertex's head string
    followed by a neighbour's tail string, and the document is joined once.
    CPython's C encoder does not handle ``indent``, so going through the dict
    would run its pure-Python encoder over every edge.
    """
    quoted = [encode_basestring_ascii(g.ring.label(v)) for v in g.vertices]
    heads = [f"    [\n      {q},\n      " for q in quoted]
    tails = [f"{q}\n    ]" for q in quoted]
    out = ['{\n  "edges": [']
    sep = "\n"
    for k, row in enumerate(g.rows):
        if row >> (k + 1):
            out += (sep, heads[k], (",\n" + heads[k]).join(later_items(row, k, tails)))
            sep = ",\n"
    out.append("]" if sep == "\n" else "\n  ]")
    level = encode_basestring_ascii(EXTENDED) if g.requested_extended else str(g.level)
    ideal = ["    " + encode_basestring_ascii(lbl) for lbl in g.ideal.generator_labels()]
    out += (
        ',\n  "i": ', level,
        ',\n  "ideal": ', _json_array(ideal),
        ',\n  "kind": ', encode_basestring_ascii(g.kind),
        ',\n  "ring": ', encode_basestring_ascii(descriptor_string(g.ring.descriptor)),
        ',\n  "vertices": ', _json_array(["    " + q for q in quoted]),
        "\n}\n",
    )
    return "".join(out)


def graph_to_dot(g: GraphLevel) -> str:
    level_tag = "ext" if g.requested_extended else str(g.level)
    names = [f'"{g.ring.label(v)}"' for v in g.vertices]
    lines = [f"graph g_{g.kind}_{level_tag} {{"]
    lines.extend(f"  {name};" for name in names)
    ends = [f"{name};" for name in names]
    for k, row in enumerate(g.rows):
        head = f"  {names[k]} -- "
        lines.extend(head + end for end in later_items(row, k, ends))
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_table(g: GraphLevel) -> str:
    level_tag = "ext" if g.requested_extended else str(g.level)
    labels = [g.ring.label(v) for v in g.vertices]
    lines = [
        f"ring:     {descriptor_string(g.ring.descriptor)}",
        f"ideal:    {','.join(g.ideal.generator_labels()) or '0'}",
        f"kind:     {g.kind}",
        f"level:    {level_tag} (resolved {g.level})",
        f"vertices: {len(g.vertices)}",
        f"edges:    {g.edge_count}",
        "",
    ]
    lines.extend(f"  {label}" for label in labels)
    lines.append("")
    for k, row in enumerate(g.rows):
        head = f"  {labels[k]} -- "
        lines.extend(head + label for label in later_items(row, k, labels))
    return "\n".join(lines) + "\n"


def _parse_labels(ring: Ring, items, what: str) -> list[int]:
    """Parse a JSON array of element labels; anything else is bad input."""
    if not isinstance(items, list) or not all(isinstance(lbl, str) for lbl in items):
        raise ParseError(f"graph JSON {what} must be a list of element labels, not {items!r}")
    return [ring.parse_label(lbl) for lbl in items]


def load_graph_json(text: Union[str, dict]) -> GraphLevel:
    """Rebuild a GraphLevel from its JSON export.

    The adjacency is taken from the file, not recomputed, so round-trip
    comparisons exercise the exporter for real. Only the level that ``ext``
    resolves to is recomputed, since the file does not record it.
    """
    try:
        data = json.loads(text) if isinstance(text, str) else text
    except json.JSONDecodeError as exc:
        raise ParseError(f"graph JSON is malformed: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("graph JSON must be an object")
    missing = [key for key in ("edges", "i", "ideal", "kind", "ring", "vertices")
               if key not in data]
    if missing:
        raise ParseError(f"graph JSON is missing {', '.join(missing)}")
    if not isinstance(data["ring"], str):
        raise ParseError(f"graph JSON ring must be a descriptor string, not {data['ring']!r}")
    kind = data["kind"]
    if kind not in (COZERO, ZERO):
        raise ParseError(f"graph JSON has an unknown kind {kind!r}")
    ring = build_ring(data["ring"])
    ideal = span(ring, _parse_labels(ring, data["ideal"], "ideal"))
    vertices = tuple(_parse_labels(ring, data["vertices"], "vertices"))
    pos = {v: k for k, v in enumerate(vertices)}
    if len(pos) != len(vertices):
        raise ParseError("graph JSON lists a vertex more than once")
    if not isinstance(data["edges"], list):
        raise ParseError("graph JSON edges must be a list")
    rows = [0] * len(vertices)
    for pair in data["edges"]:
        ends = _parse_labels(ring, pair, "edge")
        if len(ends) != 2 or ends[0] == ends[1] or not all(v in pos for v in ends):
            raise ParseError(f"edge {pair!r} must join two distinct vertices")
        x, y = ends
        rows[pos[x]] |= 1 << pos[y]
        rows[pos[y]] |= 1 << pos[x]
    try:
        level = level_context(ring, ideal).level(data["i"])
    except ValueError as exc:
        raise ParseError(f"graph JSON has a bad level {data['i']!r}") from exc
    return GraphLevel(
        ring=ring,
        ideal=ideal,
        kind=kind,
        level=level,
        requested_extended=data["i"] == EXTENDED,
        vertices=vertices,
        rows=tuple(rows),
    )
