"""Serialization of level graphs: JSON, DOT, and the JSON loader.

Both formats enumerate vertices and edges in the same order (carrier index,
then lexicographic index pairs), so exports are deterministic and directly
comparable.
"""

from __future__ import annotations

import json
from typing import Union

from .graphs import COZERO, EXTENDED, GraphLevel
from .ideals import IdealSet, span
from .rings import ParseError, Ring, build_ring, descriptor_string, parse_elements


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


def graph_to_json(g: GraphLevel) -> str:
    return json.dumps(graph_to_json_dict(g), indent=2, sort_keys=True) + "\n"


def graph_to_dot(g: GraphLevel) -> str:
    ring = g.ring
    level_tag = "ext" if g.requested_extended else str(g.level)
    lines = [f"graph g_{g.kind}_{level_tag} {{"]
    for v in g.vertices:
        lines.append(f'  "{ring.label(v)}";')
    for x, y in g.edges():
        lines.append(f'  "{ring.label(x)}" -- "{ring.label(y)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_table(g: GraphLevel) -> str:
    ring = g.ring
    level_tag = "ext" if g.requested_extended else str(g.level)
    lines = [
        f"ring:     {descriptor_string(ring.descriptor)}",
        f"ideal:    {','.join(g.ideal.generator_labels()) or '0'}",
        f"kind:     {g.kind}",
        f"level:    {level_tag} (resolved {g.level})",
        f"vertices: {len(g.vertices)}",
        f"edges:    {g.edge_count}",
        "",
    ]
    for v in g.vertices:
        lines.append(f"  {ring.label(v)}")
    lines.append("")
    for x, y in g.edges():
        lines.append(f"  {ring.label(x)} -- {ring.label(y)}")
    return "\n".join(lines) + "\n"


def load_graph_json(text: Union[str, dict]) -> GraphLevel:
    """Rebuild a GraphLevel from its JSON export.

    The adjacency is taken from the file, not recomputed, so round-trip
    comparisons exercise the exporter for real.
    """
    try:
        data = json.loads(text) if isinstance(text, str) else text
    except json.JSONDecodeError as exc:
        raise ParseError(f"graph JSON is malformed: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("graph JSON must be an object")
    try:
        ring = build_ring(data["ring"])
        gens = [ring.parse_label(lbl) for lbl in data["ideal"]]
        ideal = span(ring, gens)
        vertices = tuple(ring.parse_label(lbl) for lbl in data["vertices"])
        kind = data["kind"]
        level_field = data["i"]
    except KeyError as exc:
        raise ParseError(f"graph JSON is missing field {exc}") from exc
    pos = {v: k for k, v in enumerate(vertices)}
    rows = [0] * len(vertices)
    for pair in data["edges"]:
        ends = [ring.parse_label(lbl) for lbl in pair]
        if len(ends) != 2 or not all(v in pos for v in ends):
            raise ParseError(f"edge {pair} must join two vertices")
        x, y = ends
        rows[pos[x]] |= 1 << pos[y]
        rows[pos[y]] |= 1 << pos[x]
    requested_extended = level_field == EXTENDED
    try:
        level = 0 if requested_extended else int(level_field)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"graph JSON has a bad level {level_field!r}") from exc
    return GraphLevel(
        ring=ring,
        ideal=ideal,
        kind=kind,
        level=level,
        requested_extended=requested_extended,
        vertices=vertices,
        rows=tuple(rows),
    )
