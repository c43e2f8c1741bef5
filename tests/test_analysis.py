"""Shape predicates: emptiness, completeness, multipartite structure."""

import itertools

import pytest

from oracles import (
    brute_is_multipartite,
    grid_graphs,
    pairwise_induced_edges,
    pairwise_is_subgraph,
    pairwise_multipartite_parts,
    pairwise_partition_verdict,
)
from ringgraphs.analysis import (
    IncomparableGraphs,
    InvalidPartition,
    NotZpnqForm,
    PartitionWitness,
    check_partition_claim,
    complete_multipartite_parts,
    graph_equals,
    induced_subgraph,
    is_complete,
    is_empty_graph,
    is_subgraph,
    zpnq_parts,
    zpnq_shape,
)
from ringgraphs.graphs import COZERO, ZERO, build_level, vertex_set
from ringgraphs.ideals import span, zero_ideal
from ringgraphs.rings import build_ring


def graph(name, i, kind=COZERO, ideal_gens=()):
    ring = build_ring(name)
    J = span(ring, ideal_gens) if ideal_gens else zero_ideal(ring)
    return build_level(ring, J, i, kind)


def test_is_empty_examples():
    assert is_empty_graph(graph("Z8", 3))
    assert not is_empty_graph(graph("Z12", 1))
    assert is_empty_graph(graph("Z12", 1, ideal_gens=(2,)))  # no vertices at all


def test_is_complete_examples():
    assert is_complete(graph("Z4", 1))  # single vertex
    assert not is_complete(graph("Z12", 2))  # 2-4 missing
    assert not is_complete(graph("Z6", 1, ZERO))  # 2*4 is nonzero
    assert is_complete(graph("Z2xZ2", 1))


def test_complete_multipartite_parts_examples():
    w = complete_multipartite_parts(graph("Z12", 2))
    assert w is not None
    assert w.parts == ((2, 4, 8, 10), (3, 6, 9))
    assert complete_multipartite_parts(graph("Z12", 1)) is None
    # edgeless graph collapses to a single part
    w8 = complete_multipartite_parts(graph("Z8", 1))
    assert w8 is not None and w8.parts == ((2, 4, 6),)
    # empty graph: zero parts, vacuously complete multipartite
    w_empty = complete_multipartite_parts(graph("Z12", 1, ideal_gens=(2,)))
    assert w_empty is not None and w_empty.parts == ()


def test_check_partition_claim_examples():
    g2 = graph("Z12", 2)
    fails = check_partition_claim(
        g2, PartitionWitness(((3, 9), (2, 4, 8, 10), (6,)))
    )
    assert not fails.holds
    assert fails.witness == (3, 6)
    assert fails.reason == "missing cross-part edge"
    holds = check_partition_claim(g2, PartitionWitness(((2, 4, 8, 10), (3, 9, 6))))
    assert holds.holds
    edgeless = graph("Z8", 1)
    single = check_partition_claim(edgeless, PartitionWitness(((2, 4, 6),)))
    assert single.holds


def test_check_partition_claim_validation():
    g = graph("Z12", 1)
    with pytest.raises(InvalidPartition):
        check_partition_claim(g, PartitionWitness(((2, 3), (4,))))
    with pytest.raises(InvalidPartition):
        check_partition_claim(
            g, PartitionWitness(((2, 3, 4, 6, 8, 9, 10), (2,)))
        )


def test_graph_equals_and_subgraph():
    g1 = graph("Z12", 1)
    g2 = graph("Z12", 2)
    assert is_subgraph(g1, g2)
    assert not is_subgraph(g2, g1)
    assert not graph_equals(g1, g2)
    assert graph_equals(g2, graph("Z12", 2))
    with pytest.raises(IncomparableGraphs):
        graph_equals(g1, graph("Z24", 1))
    with pytest.raises(IncomparableGraphs):
        is_subgraph(g1, graph("Z12", 1, ZERO))


def test_zpnq_parts_examples():
    assert zpnq_parts(build_ring("Z12")).parts == ((3, 9), (2, 4, 8, 10), (6,))
    assert zpnq_parts(build_ring("Z24")).parts == (
        (3, 9, 15, 21),
        (2, 4, 8, 10, 14, 16, 20, 22),
        (6, 12, 18),
    )
    assert zpnq_parts(build_ring("Z18")).parts == (
        (2, 4, 8, 10, 14, 16),
        (3, 9, 15),
        (6, 12),
    )


def test_zpnq_parts_match_valuations():
    # parts by the p- and q-adic valuations of each vertex, p the prime with
    # exponent above 1 (the smaller one when n = pq)
    for n, p, q in [(12, 2, 3), (18, 3, 2), (20, 2, 5), (45, 3, 5), (50, 5, 2), (15, 3, 5),
                    (35, 5, 7), (98, 7, 2), (250, 5, 2)]:
        ring = build_ring(f"Z{n}")
        parts = ([], [], [])
        for x in vertex_set(ring, zero_ideal(ring)):
            a = next(e for e in range(n) if x % p ** (e + 1))
            b = next(e for e in range(n) if x % q ** (e + 1))
            parts[0 if a == 0 else 1 if b == 0 else 2].append(x)
        assert zpnq_parts(ring).parts == tuple(tuple(part) for part in parts if part), n
        shape_p, shape_n, shape_q = zpnq_shape(ring)
        assert (shape_p, shape_q) == (p, q) and shape_p**shape_n * shape_q == n, n


def test_zpnq_parts_errors():
    for name in ("Z8", "Z36", "Z30", "Z4xZ9"):
        with pytest.raises(NotZpnqForm):
            zpnq_parts(build_ring(name))
        with pytest.raises(NotZpnqForm):
            zpnq_shape(build_ring(name))


def test_zpnq_parts_drop_empty_class():
    # squarefree pq has no doubly-divisible vertex
    assert zpnq_parts(build_ring("Z6")).parts == ((3,), (2, 4))


@pytest.mark.parametrize("case", [("Z6", 1), ("Z12", 1), ("Z12", 2), ("Z8", 1), ("Z16", 2), ("Z2xZ2", 1), ("Z9", 1)])
def test_multipartite_detection_matches_exhaustive_search(case):
    name, i = case
    g = graph(name, i)
    assert len(g.vertices) <= 12
    assert (complete_multipartite_parts(g) is not None) == brute_is_multipartite(g)


def test_complete_iff_singleton_parts():
    for name, i in (("Z4", 1), ("Z2xZ2", 1), ("Z12", 2), ("Z8", 1)):
        g = graph(name, i)
        w = complete_multipartite_parts(g)
        singleton = w is not None and all(len(p) == 1 for p in w.parts)
        assert is_complete(g) == singleton


def test_degree_sequence_of_verified_multipartite():
    g = graph("Z12", 2)
    w = complete_multipartite_parts(g)
    assert check_partition_claim(g, w).holds
    for part in w.parts:
        for v in part:
            assert g.degree(v) == len(g.vertices) - len(part)


def test_induced_subgraph():
    g = graph("Z12", 1)
    h = induced_subgraph(g, {2, 3, 9})
    assert h.vertices == (2, 3, 9)
    assert set(h.edges()) == {(2, 3), (2, 9)}


def _perturbed(parts, verts):
    """parts with the last vertex moved into the first vertex's part, or
    split off alone when it already shares that part."""
    last = verts[-1]
    rest = [tuple(v for v in part if v != last) for part in parts]
    home = next(k for k, part in enumerate(parts) if verts[0] in part)
    if last in parts[home]:
        if len(parts[home]) == 1:
            return None
        return (*rest, (last,))
    rest[home] = tuple(sorted(rest[home] + (last,)))
    return tuple(part for part in rest if part)


def _valuation_parts(g):
    """The Z_{p^n q} valuation parts, when they partition g's vertex set."""
    if g.ideal.bits != 1:
        return None
    try:
        return zpnq_parts(g.ring).parts
    except NotZpnqForm:
        return None


def test_shape_predicates_match_pairwise_oracles_on_grid_graphs():
    graphs = list(grid_graphs())
    for g in graphs:
        detected = complete_multipartite_parts(g)
        assert (detected.parts if detected else None) == pairwise_multipartite_parts(g), g
        if not g.vertices:
            continue
        bases = [
            detected.parts if detected else tuple((v,) for v in g.vertices),
            _valuation_parts(g),
        ]
        candidates = [p for p in bases if p is not None]
        candidates += [_perturbed(p, g.vertices) for p in candidates]
        for parts in filter(None, candidates):
            verdict = check_partition_claim(g, PartitionWitness(parts))
            expected = pairwise_partition_verdict(g, parts)
            assert (verdict.holds, verdict.witness, verdict.reason) == expected, (g, parts)
        keep = set(g.vertices[::2])
        h = induced_subgraph(g, keep)
        assert h.vertices == tuple(v for v in g.vertices if v in keep)
        assert pairwise_induced_edges(h, keep) == pairwise_induced_edges(g, keep), g
        assert is_subgraph(h, g) == pairwise_is_subgraph(h, g)
        assert is_subgraph(g, h) == pairwise_is_subgraph(g, h)
    # levels 1, 2, 3 and ext of one (ring, ideal, kind) come in fours
    for k in range(0, len(graphs), 4):
        levels = graphs[k : k + 4]
        for g1, g2 in itertools.product(levels, repeat=2):
            assert is_subgraph(g1, g2) == pairwise_is_subgraph(g1, g2), (g1, g2)
