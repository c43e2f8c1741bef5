"""Graph writers: byte-exact JSON, DOT and table output, and the export pins."""

import hashlib
import json
from pathlib import Path

from oracles import grid_graphs
from ringgraphs.analysis import complete_multipartite_parts, is_complete
from ringgraphs.export import graph_to_dot, graph_to_json, graph_to_json_dict, graph_to_table
from ringgraphs.graphs import COZERO, EXTENDED, ZERO, build_level, later_items
from ringgraphs.ideals import zero_ideal
from ringgraphs.rings import build_ring, descriptor_string

PINS = Path(__file__).parents[1] / "perfbench" / "pins.json"

# the seed-0 items of the benchmark's extend-zn workload
EXTEND_ZN_ITEMS = [("Z2310", COZERO), ("Z1024", COZERO), ("Z1000", ZERO), ("Z4xZ9xZ25", COZERO)]


def reference_edges(g):
    """Edges read off the rows one position at a time."""
    n = len(g.vertices)
    return [
        (g.vertices[k], g.vertices[j])
        for k in range(n)
        for j in range(k + 1, n)
        if g.rows[k] >> j & 1
    ]


def reference_dot(g):
    label = g.ring.label
    level_tag = "ext" if g.requested_extended else str(g.level)
    lines = [f"graph g_{g.kind}_{level_tag} {{"]
    lines += [f'  "{label(v)}";' for v in g.vertices]
    lines += [f'  "{label(x)}" -- "{label(y)}";' for x, y in reference_edges(g)]
    return "\n".join(lines + ["}"]) + "\n"


def reference_table(g):
    label = g.ring.label
    level_tag = "ext" if g.requested_extended else str(g.level)
    lines = [
        f"ring:     {descriptor_string(g.ring.descriptor)}",
        f"ideal:    {','.join(g.ideal.generator_labels()) or '0'}",
        f"kind:     {g.kind}",
        f"level:    {level_tag} (resolved {g.level})",
        f"vertices: {len(g.vertices)}",
        f"edges:    {len(reference_edges(g))}",
        "",
    ]
    lines += [f"  {label(v)}" for v in g.vertices]
    lines.append("")
    lines += [f"  {label(x)} -- {label(y)}" for x, y in reference_edges(g)]
    return "\n".join(lines) + "\n"


def test_later_items_examples():
    items = "abcdefgh"
    assert list(later_items(0, 0, items)) == []
    assert list(later_items(0b1011, 0, items)) == ["b", "d"]
    assert list(later_items(0b1011, 1, items)) == ["d"]
    assert list(later_items(0b1011, 3, items)) == []
    assert list(later_items(1 << 200 | 1 << 70 | 1 << 3, 3, range(201))) == [70, 200]


def test_writers_match_references_on_grid_graphs():
    # the grid has all three ring families, nonzero ideals, fields (no
    # vertices) and prime powers (vertices but no edges)
    families = set()
    seen_nonzero_ideal = seen_ext = seen_vertexless = seen_edgeless = False
    for g in grid_graphs():
        families.add(type(g.ring.descriptor).__name__)
        seen_nonzero_ideal |= g.ideal.bits != 1
        seen_ext |= g.requested_extended
        seen_vertexless |= not g.vertices
        seen_edgeless |= bool(g.vertices) and g.edge_count == 0
        assert list(g.edges()) == reference_edges(g)
        want = json.dumps(graph_to_json_dict(g), indent=2, sort_keys=True) + "\n"
        assert graph_to_json(g) == want, g
        assert graph_to_dot(g) == reference_dot(g), g
        assert graph_to_table(g) == reference_table(g), g
    assert len(families) == 3
    assert seen_nonzero_ideal and seen_ext and seen_vertexless and seen_edgeless


def test_extend_zn_exports_match_benchmark_pins():
    # the benchmark pins these bytes; a change to them must be deliberate
    pins = json.loads(PINS.read_text())["extend-zn"]
    for name, kind in EXTEND_ZN_ITEMS:
        ring = build_ring(name)
        g = build_level(ring, zero_ideal(ring), EXTENDED, kind)
        pin = pins[f"{name} {kind}"]
        assert (len(g.vertices), g.edge_count, g.level) == (
            pin["vertices"], pin["edges"], pin["level"]
        )
        assert hashlib.sha256(graph_to_json(g).encode()).hexdigest() == pin["sha256"], name
        parts = complete_multipartite_parts(g)
        assert (parts.arity if parts else None) == pin["parts"], name
        assert is_complete(g) == pin["complete"], name
