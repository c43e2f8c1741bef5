"""Graph writers: byte-exact JSON, DOT and table output, and the export pins."""

import hashlib
import json
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from oracles import grid_graphs
from ringgraphs import clear_caches, graphs, rings
from ringgraphs.analysis import complete_multipartite_parts, is_complete
from ringgraphs.export import graph_to_dot, graph_to_json, graph_to_table, load_graph_json
from ringgraphs.graphs import COZERO, EXTENDED, ZERO, build_level, later_neighbours
from ringgraphs.ideals import set_bit_items, zero_ideal
from ringgraphs.rings import ParseError, build_ring, descriptor_string

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


def reference_json(g):
    """The export schema object, dumped as the file format documents."""
    label = g.ring.label
    obj = {
        "ring": descriptor_string(g.ring.descriptor),
        "ideal": g.ideal.generator_labels(),
        "kind": g.kind,
        "i": EXTENDED if g.requested_extended else g.level,
        "vertices": [label(v) for v in g.vertices],
        "edges": [[label(x), label(y)] for x, y in reference_edges(g)],
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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


def test_later_neighbours_examples():
    items = "abcdefgh"
    assert list(later_neighbours([], items)) == []
    assert list(later_neighbours([0], items)) == [[]]
    # rows 0, 1 and 3 are twins: they share 0b1011 and each slices its tail
    twins = [0b1011, 0b1011, 0, 0b1011]
    assert list(later_neighbours(twins, items)) == [["b", "d"], ["d"], [], []]
    wide = [0, 0, 0, 1 << 200 | 1 << 70 | 1 << 3]
    assert list(later_neighbours(wide, range(201)))[3] == [70, 200]
    # K_{2,2} with parts {0, 2} and {1, 3}: equal rows that are not adjacent
    bipartite = [0b1010, 0b0101, 0b1010, 0b0101]
    assert list(later_neighbours(bipartite, "wxyz")) == [["x", "z"], ["y"], ["z"], []]


def test_later_neighbours_reads_each_distinct_row_once(monkeypatch):
    rng = random.Random(16)
    pool = [rng.getrandbits(40) for _ in range(6)]
    rows = [rng.choice(pool) for _ in range(40)]
    reads = []

    def counted(bits, items):
        reads.append(bits)
        return set_bit_items(bits, items)

    monkeypatch.setattr(graphs, "set_bit_items", counted)
    got = list(later_neighbours(rows, range(40)))
    assert got == [[j for j in range(k + 1, 40) if rows[k] >> j & 1] for k in range(40)]
    assert sorted(reads) == sorted(set(rows))


def assert_writers_match_references(g):
    assert list(g.edges()) == reference_edges(g)
    assert graph_to_json(g) == reference_json(g), g
    assert graph_to_dot(g) == reference_dot(g), g
    assert graph_to_table(g) == reference_table(g), g


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
        assert_writers_match_references(g)
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


def ext_graph(name, kind):
    ring = build_ring(name)
    return build_level(ring, zero_ideal(ring), EXTENDED, kind)


def test_writers_match_references_on_twin_rows():
    # Z16 zero: the class {4, 12} is adjacent to itself, so its two rows
    # differ by their diagonal bits and are not equal
    z16 = ext_graph("Z16", ZERO)
    p4, p12 = z16.position_of(4), z16.position_of(12)
    assert z16.rows[p4] ^ z16.rows[p12] == 1 << p4 | 1 << p12
    # Z30 cozero: the twins 2, 4, 8, ... have equal rows with other rows between
    z30 = ext_graph("Z30", COZERO)
    p2, p3, p4 = (z30.position_of(x) for x in (2, 3, 4))
    assert z30.rows[p2] == z30.rows[p4] != z30.rows[p3]
    for g in (z16, z30):
        assert_writers_match_references(g)
        loaded = load_graph_json(graph_to_json(g))
        assert loaded.rows == g.rows
        assert_writers_match_references(loaded)


@pytest.mark.parametrize("name, kind", [("Z1000", ZERO), ("Z4xZ9xZ25", COZERO)])
def test_extend_zn_exports_round_trip(name, kind):
    g = ext_graph(name, kind)
    text = graph_to_json(g)
    loaded = load_graph_json(text)
    assert loaded.rows == g.rows and loaded.level == g.level
    assert graph_to_json(loaded) == text
    assert graph_to_dot(loaded) == reference_dot(g)
    assert graph_to_table(loaded) == reference_table(g)


@pytest.mark.parametrize("writer", [graph_to_json, graph_to_dot, graph_to_table])
def test_writers_hold_their_text_once(writer):
    # the document plus two list slots per edge: no edge text is held twice
    g = ext_graph("Z4xZ9xZ25", COZERO)
    writer(g)
    tracemalloc.start()
    try:
        text = writer(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= len(text) + 20 * g.edge_count + 256 * 1024, (peak, len(text))


def test_clear_caches_empties_both_caches_and_rebuilds_the_same_bytes():
    before = ext_graph("Z1000", ZERO)
    text = graph_to_json(before)
    clear_caches()
    assert not rings._RING_CACHE and not graphs._CONTEXTS
    after = ext_graph("Z1000", ZERO)
    assert after.ring is not before.ring
    assert graph_to_json(after) == text


def test_clear_caches_during_builds_leaves_each_build_whole():
    want = graph_to_json(ext_graph("Z60", COZERO))

    def build(k):
        if k % 4 == 0:
            clear_caches()
        return graph_to_json(ext_graph("Z60", COZERO))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            texts = list(pool.map(build, range(32), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert texts == [want] * 32


BASE_Z12 = {"ring": "Z12", "ideal": [], "vertices": ["2", "3", "4", "9"],
            "edges": [["2", "3"], ["2", "9"]], "kind": "cozero", "i": 1}


def test_loader_parses_labels_spelled_otherwise():
    # 14 is 2 in Z12: in an edge or in the vertex list, it names vertex 2
    want = load_graph_json(dict(BASE_Z12))
    assert set(want.edges()) == {(2, 3), (2, 9)}
    for spelled in (
        {"edges": [["14", "3"], ["2", "-3"]]},
        {"vertices": ["14", "3", "4", "9"]},
        {"vertices": ["14", "3", "4", "9"], "edges": [["14", "3"], [" 2", "9"]]},
    ):
        g = load_graph_json({**BASE_Z12, **spelled})
        assert g.vertices == want.vertices and g.rows == want.rows, spelled


@pytest.mark.parametrize("edges, message", [
    ([["2", "14"]], "must join two distinct vertices"),
    ([["2", "5"]], "must join two distinct vertices"),
    ([["2", "3"], ["2", "x"]], "bad element label"),
    ([["2", "3"], ["2", 3]], "must be a list of element labels"),
    ([["2", "3"], {"2": "3"}], "must be a list of element labels"),
    ([["2", "3"], ["2"]], "must join two distinct vertices"),
], ids=["loop-spelled-otherwise", "non-vertex", "bad-label", "non-string", "object",
        "one-ended"])
def test_loader_rejects_bad_edges_after_good_ones(edges, message):
    with pytest.raises(ParseError, match=message):
        load_graph_json({**BASE_Z12, "edges": edges})
