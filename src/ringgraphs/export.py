"""Serialization of level graphs: JSON, DOT, a text table, and the JSON loader.

Every writer lists vertices and edges in the same order (carrier index, then
lexicographic index pairs) and joins its document once from per-vertex
pieces, so exports are deterministic, directly comparable and held once.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Union

from .graphs import COZERO, EXTENDED, ZERO, GraphLevel, later_neighbours, level_context
from .ideals import span
from .rings import ParseError, Ring, build_ring, descriptor_string


def _json_array(items: list[str]) -> str:
    """A top-level JSON array laid out as ``indent=2`` would.

    Each item is already rendered with its own four leading spaces.
    """
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _add_edges(out: list[str], rows, ends: list[str], head: str, tail: str) -> None:
    """Append vertex k's head, then vertex j's tail, for each edge (k, j), k < j.

    Both formats are filled once per vertex from ``ends``, and twins share
    their tails, so an edge costs two slots in ``out`` and no text of its own.
    """
    tails = [tail.format(e) for e in ends]
    for h, later in zip(map(head.format, ends), later_neighbours(rows, tails)):
        pieces = [h] * (2 * len(later))
        pieces[1::2] = later
        out += pieces


def graph_to_json(g: GraphLevel) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\n"`` of the README's schema.

    The same bytes, written straight from the adjacency rows: each vertex is
    labelled and quoted once, and the document is joined once from per-vertex
    pieces, so it holds the text once and costs about the output length plus
    two list slots per edge. CPython's C encoder does not handle ``indent``,
    so going through a dict would run its pure-Python encoder over every edge.
    """
    quoted = [encode_basestring_ascii(g.ring.label(v)) for v in g.vertices]
    out = ['{\n  "edges": [']
    _add_edges(out, g.rows, quoted, ",\n    [\n      {},\n      ", "{}\n    ]")
    if len(out) > 1:
        out[1] = out[1][1:]  # no comma before the first edge
    out.append("\n  ]" if len(out) > 1 else "]")
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
    out = [f"graph g_{g.kind}_{level_tag} {{\n", *(f"  {name};\n" for name in names)]
    _add_edges(out, g.rows, names, "  {} -- ", "{};\n")
    out.append("}\n")
    return "".join(out)


def graph_to_table(g: GraphLevel) -> str:
    level_tag = "ext" if g.requested_extended else str(g.level)
    labels = [g.ring.label(v) for v in g.vertices]
    out = [
        f"ring:     {descriptor_string(g.ring.descriptor)}\n",
        f"ideal:    {','.join(g.ideal.generator_labels()) or '0'}\n",
        f"kind:     {g.kind}\n",
        f"level:    {level_tag} (resolved {g.level})\n",
        f"vertices: {len(g.vertices)}\n",
        f"edges:    {g.edge_count}\n",
        "\n", *(f"  {label}\n" for label in labels), "\n",
    ]
    _add_edges(out, g.rows, labels, "  {} -- ", "{}\n")
    return "".join(out)


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
    except ValueError as exc:  # also numbers past the digit limit
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
    # endpoints spelled as in the vertex list map straight to positions;
    # any other spelling is parsed
    index = {label: k for k, label in enumerate(data["vertices"])}
    neighbours: list[list[int]] = [[] for _ in vertices]
    for pair in data["edges"]:
        try:
            a, b = pair if type(pair) is list else ()
            x, y = index[a], index[b]
        except (KeyError, TypeError, ValueError):
            ends = _parse_labels(ring, pair, "edge")
            if len(ends) != 2 or not all(v in pos for v in ends):
                raise ParseError(f"edge {pair!r} must join two distinct vertices") from None
            x, y = pos[ends[0]], pos[ends[1]]
        if x == y:
            raise ParseError(f"edge {pair!r} must join two distinct vertices")
        neighbours[x].append(y)
        neighbours[y].append(x)
    rows = []  # each row folded once, with no big-int OR per edge
    for near in neighbours:
        digits = bytearray(b"0") * len(vertices)
        for j in near:
            digits[j] = 49  # ord("1")
        rows.append(int(digits[::-1], 2))
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
