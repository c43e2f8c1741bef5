"""Shape predicates over level graphs, as mask algebra on the adjacency rows.

A graph is complete multipartite exactly when "non-adjacent or equal" is an
equivalence relation, whose classes are then the parts. A vertex in part P
has the row ``full ^ P``, so the parts are the classes of vertices with
equal rows, and the graph is complete multipartite exactly when every such
class is the complement of its row. No flood fill or pair loop is needed,
and the rows are read as given, so graphs loaded from JSON are handled the
same way as built ones.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .graphs import GraphLevel, level_context
from .ideals import zero_ideal
from .rings import ModularRing, Ring, prime_factorization, set_bit_items


class InvalidPartition(Exception):
    """The supplied parts do not partition the vertex set."""


class IncomparableGraphs(Exception):
    """Graphs over different rings, ideals, or kinds cannot be compared."""


class NotZpnqForm(Exception):
    """The modulus does not factor as p^n * q with distinct primes."""


class PartitionWitness(NamedTuple):
    parts: tuple[tuple[int, ...], ...]

    @property
    def arity(self) -> int:
        return len(self.parts)


class PartitionVerdict(NamedTuple):
    holds: bool
    witness: Optional[tuple[int, int]] = None
    reason: str = ""


def is_empty_graph(g: GraphLevel) -> bool:
    """No edges; vertices may still exist."""
    return g.edge_count == 0


def is_complete(g: GraphLevel) -> bool:
    """Every unordered vertex pair is an edge."""
    n = len(g.vertices)
    full = (1 << n) - 1
    return all(g.rows[k] == full ^ (1 << k) for k in range(n))


def complete_multipartite_parts(g: GraphLevel) -> Optional[PartitionWitness]:
    """The equal-row classes when each is its row's complement, else None."""
    full = (1 << len(g.vertices)) - 1
    masks: dict[int, int] = {}
    parts: dict[int, list[int]] = {}
    for k, (v, row) in enumerate(zip(g.vertices, g.rows)):
        masks[row] = masks.get(row, 0) | 1 << k
        parts.setdefault(row, []).append(v)
    if any(mask != full ^ row for row, mask in masks.items()):
        return None
    return PartitionWitness(tuple(map(tuple, parts.values())))


def check_partition_claim(g: GraphLevel, witness: PartitionWitness) -> PartitionVerdict:
    """HOLDS when no edge sits inside a part and every cross pair is an edge.

    Fails with the first offending pair in ascending carrier-index order.
    """
    assignment: dict[int, int] = {}
    for k, part in enumerate(witness.parts):
        if not part:
            raise InvalidPartition("empty part")
        for v in part:
            if v in assignment:
                raise InvalidPartition(f"vertex {g.ring.label(v)} in two parts")
            assignment[v] = k
    if set(assignment) != set(g.vertices):
        raise InvalidPartition("parts do not cover the vertex set")
    verts = g.vertices
    part_masks = [sum(1 << g.position_of(v) for v in part) for part in witness.parts]
    full = (1 << len(verts)) - 1
    for k, (x, row) in enumerate(zip(verts, g.rows)):
        same = part_masks[assignment[x]]
        # a pair offends when edge and same part agree: an edge inside the
        # part, or a missing edge to another part
        bad = (full ^ row ^ same) >> (k + 1)
        if bad:
            j = k + (bad & -bad).bit_length()
            reason = "edge inside a part" if row >> j & 1 else "missing cross-part edge"
            return PartitionVerdict(False, (x, verts[j]), reason)
    return PartitionVerdict(True)


def _require_comparable(g1: GraphLevel, g2: GraphLevel) -> None:
    if (
        g1.ring is not g2.ring
        or g1.ideal.bits != g2.ideal.bits
        or g1.kind != g2.kind
    ):
        raise IncomparableGraphs("graphs differ in ring, ideal, or kind")


def graph_equals(g1: GraphLevel, g2: GraphLevel) -> bool:
    _require_comparable(g1, g2)
    return g1.vertices == g2.vertices and g1.rows == g2.rows


def is_subgraph(g1: GraphLevel, g2: GraphLevel) -> bool:
    """Vertex and edge containment of g1 in g2."""
    _require_comparable(g1, g2)
    pos2 = {v: k for k, v in enumerate(g2.vertices)}
    if any(v not in pos2 for v in g1.vertices):
        return False
    # bit j of a g1 row maps to the bit of g1.vertices[j] in g2
    at2 = [1 << pos2[v] for v in g1.vertices]
    return not any(
        sum(set_bit_items(row, at2)) & ~g2.rows[pos2[v]]
        for v, row in zip(g1.vertices, g1.rows)
    )


def induced_subgraph(g: GraphLevel, keep: set[int]) -> GraphLevel:
    """Restriction of g to the given vertices (order preserved)."""
    kept = [k for k, v in enumerate(g.vertices) if v in keep]
    # bit k of an old row maps to the new bit of vertex k, or to nothing
    at_new = [0] * len(g.vertices)
    for j, k in enumerate(kept):
        at_new[k] = 1 << j
    rows = tuple(sum(set_bit_items(g.rows[k], at_new)) for k in kept)
    return GraphLevel(
        ring=g.ring,
        ideal=g.ideal,
        kind=g.kind,
        level=g.level,
        requested_extended=g.requested_extended,
        vertices=tuple(g.vertices[k] for k in kept),
        rows=rows,
    )


def zpnq_shape(ring: Ring) -> tuple[int, int, int]:
    """(p, n, q) for a Z_{p^n q} ring with distinct primes p and q.

    p carries the exponent n; for squarefree pq, p is the smaller prime.
    """
    desc = ring.descriptor
    if not isinstance(desc, ModularRing):
        raise NotZpnqForm("only modular rings have the p^n q shape")
    factors = prime_factorization(desc.modulus)
    if len(factors) != 2 or min(factors.values()) != 1:
        raise NotZpnqForm(f"{desc.modulus} is not of the form p^n * q")
    p, q = sorted(factors, key=lambda r: (-factors[r], r))
    return p, factors[p], q


def zpnq_parts(ring: Ring) -> PartitionWitness:
    """Valuation parts of the vertex set of a Z_{p^n q} ring with J = 0.

    Writing a vertex as k * p^a * q^b with k coprime to pq, the parts are
    a = 0, then b = 0, then both positive (dropped when empty); a = 0 is
    p not dividing the vertex, and likewise for b and q.
    """
    p, _, q = zpnq_shape(ring)
    v1, v2, v3 = [], [], []
    for x in level_context(ring, zero_ideal(ring)).vertices():
        if x % p:
            v1.append(x)
        elif x % q:
            v2.append(x)
        else:
            v3.append(x)
    parts = tuple(tuple(part) for part in (v1, v2, v3) if part)
    return PartitionWitness(parts)
