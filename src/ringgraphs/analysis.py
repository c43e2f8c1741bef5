"""Shape predicates over level graphs.

Complete multipartite structure is detected through the complement: a graph
is complete multipartite exactly when the complement is a disjoint union of
cliques, and those cliques are the parts. That detection is linear in the
edge count and produces a canonical witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import COZERO, GraphLevel, level_context
from .ideals import zero_ideal
from .rings import ModularRing, Ring, prime_factorization


class InvalidPartition(Exception):
    """The supplied parts do not partition the vertex set."""


class IncomparableGraphs(Exception):
    """Graphs over different rings, ideals, or kinds cannot be compared."""


class NotZpnqForm(Exception):
    """The modulus does not factor as p^n * q with distinct primes."""


@dataclass(frozen=True)
class PartitionWitness:
    parts: tuple[tuple[int, ...], ...]

    @property
    def arity(self) -> int:
        return len(self.parts)

    def part_of(self, x: int) -> int:
        for k, part in enumerate(self.parts):
            if x in part:
                return k
        raise KeyError(x)


@dataclass(frozen=True)
class PartitionVerdict:
    holds: bool
    witness: Optional[tuple[int, int]] = None
    reason: str = ""

    def __bool__(self):
        return self.holds


def is_empty_graph(g: GraphLevel) -> bool:
    """No edges; vertices may still exist."""
    return g.edge_count == 0


def is_complete(g: GraphLevel) -> bool:
    """Every unordered vertex pair is an edge."""
    n = len(g.vertices)
    full = (1 << n) - 1
    return all(g.rows[k] == full ^ (1 << k) for k in range(n))


def complete_multipartite_parts(g: GraphLevel) -> Optional[PartitionWitness]:
    """Parts when the complement splits into cliques, else None."""
    n = len(g.vertices)
    full = (1 << n) - 1
    comp_rows = [(full ^ g.rows[k]) & ~(1 << k) for k in range(n)]
    seen = 0
    parts = []
    for start in range(n):
        if seen >> start & 1:
            continue
        # flood the complement component
        comp = 1 << start
        frontier = comp_rows[start] & ~comp
        while frontier:
            comp |= frontier
            nxt = 0
            rest = frontier
            while rest:
                k = (rest & -rest).bit_length() - 1
                nxt |= comp_rows[k]
                rest &= rest - 1
            frontier = nxt & ~comp
        # the component must be a clique in the complement
        rest = comp
        while rest:
            k = (rest & -rest).bit_length() - 1
            if comp_rows[k] & comp != comp & ~(1 << k):
                return None
            rest &= rest - 1
        seen |= comp
        part = []
        rest = comp
        while rest:
            k = (rest & -rest).bit_length() - 1
            part.append(g.vertices[k])
            rest &= rest - 1
        parts.append(tuple(part))
    parts.sort(key=lambda p: p[0])
    return PartitionWitness(tuple(parts))


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
    for i, x in enumerate(verts):
        for y in verts[i + 1 :]:
            same = assignment[x] == assignment[y]
            edge = g.has_edge(x, y)
            if same and edge:
                return PartitionVerdict(False, (x, y), "edge inside a part")
            if not same and not edge:
                return PartitionVerdict(False, (x, y), "missing cross-part edge")
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
    for i, v in enumerate(g1.vertices):
        row = g1.rows[i]
        j = 0
        while row:
            if row & 1:
                w = g1.vertices[j]
                if not g2.rows[pos2[v]] >> pos2[w] & 1:
                    return False
            row >>= 1
            j += 1
    return True


def induced_subgraph(g: GraphLevel, keep: set[int]) -> GraphLevel:
    """Restriction of g to the given vertices (order preserved)."""
    verts = tuple(v for v in g.vertices if v in keep)
    old_pos = {v: k for k, v in enumerate(g.vertices)}
    rows = []
    for v in verts:
        row = 0
        for j, w in enumerate(verts):
            if g.rows[old_pos[v]] >> old_pos[w] & 1:
                row |= 1 << j
        rows.append(row)
    return GraphLevel(
        ring=g.ring,
        ideal=g.ideal,
        kind=g.kind,
        level=g.level,
        requested_extended=g.requested_extended,
        vertices=verts,
        rows=tuple(rows),
    )


def zpnq_parts(ring: Ring) -> PartitionWitness:
    """Valuation parts of the vertex set of a Z_{p^n q} ring with J = 0.

    Writing a vertex as k * p^a * q^b with k coprime to pq, the parts are
    a = 0, then b = 0, then both positive (dropped when empty).
    """
    desc = ring.descriptor
    if not isinstance(desc, ModularRing):
        raise NotZpnqForm("only modular rings have the p^n q shape")
    n = desc.modulus
    factors = prime_factorization(n)
    if len(factors) != 2 or sorted(factors.values())[0] != 1:
        raise NotZpnqForm(f"{n} is not of the form p^n * q")
    primes = sorted(factors)
    if factors[primes[0]] > 1:
        p, q = primes[0], primes[1]
    elif factors[primes[1]] > 1:
        p, q = primes[1], primes[0]
    else:
        p, q = primes[0], primes[1]
    verts = level_context(ring, zero_ideal(ring)).vertices(COZERO)
    v1, v2, v3 = [], [], []
    for x in verts:
        a = 0
        m = x
        while m % p == 0:
            a += 1
            m //= p
        b = 0
        while m % q == 0:
            b += 1
            m //= q
        if a == 0:
            v1.append(x)
        elif b == 0:
            v2.append(x)
        else:
            v3.append(x)
    parts = tuple(tuple(part) for part in (v1, v2, v3) if part)
    return PartitionWitness(parts)
