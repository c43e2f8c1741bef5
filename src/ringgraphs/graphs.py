"""Level graphs of a ring relative to an ideal.

Two kinds are built over the same machinery:

* ``cozero`` -- vertices are elements x outside J with xR + J proper; x and y
  are adjacent at level i when x^m lies outside y^nR + J and y^n lies outside
  x^mR + J for a common exponent pair m, n <= i.
* ``zero``   -- vertices are elements x outside J annihilated into J by some
  y outside J; adjacency at level i asks for x^n * y^m in J with both powers
  outside J, n, m <= i.

Both kinds have the same vertex set: in the finite ring R/J multiplication
by x is injective exactly when it is bijective, so a nonzero class is a
zero-divisor exactly when it is not a unit. That set needs no span: a finite
ring is semilocal, so units lift modulo J (Bass, 1964), the units of R/J are
the cosets u + J of the units u of R, and the vertex set is the complement of
J together with U + J (``ideals.nonunit_bits``).

Membership of any element in any ideal depends only on the ideal the element
generates, so both adjacency tests factor through the interned ideals
x^mR + J, and one loop over those ideal ids serves both kinds. Only the
relation on an id pair (a, b) differs: the cozero kind asks for a and b to be
incomparable, the zero kind for a != J, b != J and rep(a) * rep(b) in J,
where rep(a) is any element generating a over J. The zero relation is exact
because x^n y^m lies in J iff the product (x^nR + J)(y^mR + J) lies in J.

Adjacency at level i therefore depends on x only through its signature, the
ids of x^mR + J for m <= i, and vertices sharing a signature are twins. A
level graph is a blow-up of the small graph on signature classes (the
compressed zero-divisor graph of Mulay and of Anderson--LaGrange), so
``build_level`` decides the relation once per unordered class pair and
expands each row from its class's neighbour mask. A class can be adjacent to
itself in the zero kind (x^n x^m in J), never in the cozero kind, because the
ideals of one chain are pairwise comparable.

The per-element ideals x^mR + J form a descending chain that is constant from
its first repeat: x^{m+1} = x^m * x gives the inclusion, and if
x^m = x^{m+1}r + j with j in J, multiplying by x keeps the chain equal from
then on. The chain's length bounds every exponent search and yields the
stabilization level at which the graphs stop growing. Two consequences
decide claims without a search: x^n y lies in yR, so a power multiple of y
is never adjacent to y at level 1; and for an idempotent y,
(xy)^m = x^m y lies in y^nR, so xy is never adjacent to y at any level.

The chain is constant on each orbit Ux + J, for U the units of R: with u a
unit and j in J, (ux + j)^m lies in u^m x^m + J, and u^m is a unit, so
(ux + j)^m R + J = x^m R + J for every m. Conversely, if xR + J = yR + J then
x and y are associates in the finite ring R/J, hence unit multiples of each
other there, and the unit lifts to R; so the first ideal xR + J names the
orbit, and the twin classes are exactly the orbits, at every level.
``LevelContext.trajectory`` builds one chain per orbit and hands it to every
member; a non-vertex has the one-ideal chain J (x in J) or R (x a unit
modulo J) and needs no span.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, TypeVar, Union

from .ideals import IdealSet, ideal_sum, nonunit_bits, set_bit_items, unit_ideal
from .rings import Ring, descriptor_string

COZERO = "cozero"
ZERO = "zero"
EXTENDED = "extended"

Level = Union[int, str]
T = TypeVar("T")


class NotAVertex(Exception):
    """Adjacency was queried for an element outside the vertex set."""


def later_items(row: int, k: int, items: Sequence[T]) -> Iterator[T]:
    """The ``items[j]`` with j > k and bit j of ``row`` set, in order of j.

    With ``row = rows[k]`` and ``items`` indexed like the vertices, this is
    what each writer needs from vertex k's later neighbours, so every
    unordered edge is met once, in carrier-index order.
    """
    return set_bit_items(row >> (k + 1), items[k + 1 :])


@dataclass(frozen=True)
class PowerTrajectory:
    """Ideal ids of x^m R + J for m = 1, 2, ... up to the chain's first repeat.

    ``ideal_ids`` is strictly descending and ends at the stable ideal, which
    every later exponent keeps; ``preperiod`` is ``len(ideal_ids) - 1``.
    """

    element: int
    ideal_ids: tuple[int, ...]
    preperiod: int

    def id_at(self, m: int) -> int:
        if m < 1:
            raise ValueError("exponent must be >= 1")
        return self.ideal_ids[min(m, len(self.ideal_ids)) - 1]


@dataclass(frozen=True, eq=False)
class GraphLevel:
    """A level graph: sorted vertices plus a symmetric adjacency bitset."""

    ring: Ring
    ideal: IdealSet
    kind: str
    level: int
    requested_extended: bool
    vertices: tuple[int, ...]
    rows: tuple[int, ...]  # rows[k] bit j set iff vertices[k] ~ vertices[j]

    def position_of(self, x: int) -> int:
        pos = self._positions().get(x)
        if pos is None:
            raise NotAVertex(f"{self.ring.label(x)} is not a vertex")
        return pos

    def _positions(self) -> dict[int, int]:
        pos = getattr(self, "_pos_cache", None)
        if pos is None:
            pos = {v: k for k, v in enumerate(self.vertices)}
            object.__setattr__(self, "_pos_cache", pos)
        return pos

    def has_edge(self, x: int, y: int) -> bool:
        i, j = self.position_of(x), self.position_of(y)
        return bool(self.rows[i] >> j & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Unordered edges as element pairs, sorted by carrier index."""
        verts = self.vertices
        for k, row in enumerate(self.rows):
            for w in later_items(row, k, verts):
                yield (verts[k], w)

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def degree(self, x: int) -> int:
        return self.rows[self.position_of(x)].bit_count()

    def __repr__(self):
        ring = descriptor_string(self.ring.descriptor)
        lvl = EXTENDED if self.requested_extended else self.level
        return (
            f"GraphLevel({ring}, kind={self.kind}, i={lvl}, "
            f"|V|={len(self.vertices)}, |E|={self.edge_count})"
        )


# ---------------------------------------------------------------------------
# Per (ring, ideal) context
# ---------------------------------------------------------------------------

class LevelContext:
    """Shared vertex, trajectory, ideal-by-id and built-graph caches for one (ring, J) pair."""

    def __init__(self, ring: Ring, J: IdealSet):
        self.ring = ring
        self.J = J
        self._traj: dict[int, PowerTrajectory] = {}
        self._ideal_by_id: dict[int, IdealSet] = {}
        self._rep_by_id: dict[int, int] = {}
        self._vertex_bits: Optional[int] = None
        self._vertices: Optional[tuple[int, ...]] = None
        self._graphs: dict[tuple[int, str], GraphLevel] = {}

    # vertex sets ---------------------------------------------------------

    def vertex_bits(self) -> int:
        """The vertex set as a bitset; fixed by (ring, J), so racing fills agree."""
        if self._vertex_bits is None:
            self._vertex_bits = nonunit_bits(self.J)
        return self._vertex_bits

    def vertices(self) -> tuple[int, ...]:
        """The vertex set, which both kinds share (see the module docstring)."""
        if self._vertices is None:
            self._vertices = tuple(set_bit_items(self.vertex_bits(), range(self.ring.size)))
        return self._vertices

    # trajectories --------------------------------------------------------

    def trajectory(self, x: int) -> PowerTrajectory:
        got = self._traj.get(x)
        if got is not None:
            return got
        ring, J = self.ring, self.J
        if not self.vertex_bits() >> x & 1:
            # every power of a member of J stays in J, of a unit mod J is a unit
            I = J if J.contains(x) else unit_ideal(ring)
            self._ideal_by_id.setdefault(I.ideal_id, I)
            self._rep_by_id.setdefault(I.ideal_id, x)
            return PowerTrajectory(element=x, ideal_ids=(I.ideal_id,), preperiod=0)
        ids: list[int] = []
        p = x  # the running power x^m
        while True:
            I = ideal_sum(J, (p,))
            if ids and I.ideal_id == ids[-1]:
                break
            ids.append(I.ideal_id)
            if I.ideal_id not in self._ideal_by_id:
                self._ideal_by_id[I.ideal_id] = I
                self._rep_by_id[I.ideal_id] = p
            p = ring.mul(p, x)
        chain = tuple(ids)
        traj = PowerTrajectory(element=x, ideal_ids=chain, preperiod=len(chain) - 1)
        # the chain is constant on the orbit Ux + J, a union of J-cosets, so
        # an unmarked ux means an unmarked coset ux + J
        members = list(J.members())
        for u in set_bit_items(ring.unit_bits(), range(ring.size)):
            y = ring.mul(u, x)
            if y in self._traj:
                continue
            for j in members:
                z = ring.add(y, j)
                self._traj[z] = PowerTrajectory(z, chain, traj.preperiod)
        return traj

    def ideal_of_power(self, x: int, m: int) -> IdealSet:
        return self._ideal_by_id[self.trajectory(x).id_at(m)]

    # adjacency -----------------------------------------------------------

    def _incomparable(self, a: int, b: int) -> bool:
        return not self._ideal_by_id[a].comparable(self._ideal_by_id[b])

    def _annihilating(self, a: int, b: int) -> bool:
        jid = self.J.ideal_id
        if a == jid or b == jid:
            return False
        return self.J.contains(self.ring.mul(self._rep_by_id[a], self._rep_by_id[b]))

    def relation(self, kind: str) -> Callable[[int, int], bool]:
        """The symmetric relation on ideal ids that decides adjacency."""
        return self._incomparable if kind == COZERO else self._annihilating

    def adjacent(self, x: int, y: int, i: int, kind: str) -> bool:
        if x == y:
            return False
        return _prefixes_related(
            self.relation(kind),
            self.trajectory(x).ideal_ids[:i],
            self.trajectory(y).ideal_ids[:i],
        )

    def stabilization_bound(self) -> int:
        return max((len(self.trajectory(x).ideal_ids) for x in self.vertices()), default=1)


def _prefixes_related(
    related: Callable[[int, int], bool], sa: tuple[int, ...], sb: tuple[int, ...]
) -> bool:
    """Some id of one signature prefix is related to some id of the other."""
    return any(related(p, q) for p in sa for q in sb)


_CONTEXTS: dict[tuple[int, int], LevelContext] = {}
_CONTEXT_LOCK = threading.Lock()


def level_context(ring: Ring, J: IdealSet) -> LevelContext:
    key = (id(ring), J.bits)
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        with _CONTEXT_LOCK:
            ctx = _CONTEXTS.get(key)
            if ctx is None:
                ctx = LevelContext(ring, J)
                _CONTEXTS[key] = ctx
    return ctx


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def vertex_set(ring: Ring, J: IdealSet, kind: str = COZERO) -> tuple[int, ...]:
    """Sorted vertex list; empty when J is maximal or not proper."""
    if kind not in (COZERO, ZERO):
        raise ValueError(f"unknown graph kind {kind!r}")
    return level_context(ring, J).vertices()


def power_trajectory(ring: Ring, J: IdealSet, x: int) -> PowerTrajectory:
    """The descending chain of ideals x^m R + J up to its first repeat."""
    return level_context(ring, J).trajectory(x)


def stabilization_bound(ring: Ring, J: IdealSet) -> int:
    """A level at and beyond which every level graph is the same.

    Takes the max chain length over the vertex trajectories: past that
    exponent no new power ideal (hence no new adjacency witness) exists.
    """
    return level_context(ring, J).stabilization_bound()


def adjacent(ring: Ring, J: IdealSet, x: int, y: int, i: Level, kind: str = COZERO) -> bool:
    """Adjacency of two vertices at a level (or at the stabilized limit)."""
    verts = vertex_set(ring, J, kind)
    for v in (x, y):
        if v not in verts:
            raise NotAVertex(f"{ring.label(v)} is not a vertex")
    ctx = level_context(ring, J)
    lvl = ctx.stabilization_bound() if i == EXTENDED else int(i)
    if lvl < 1:
        raise ValueError("level must be >= 1 or EXTENDED")
    return ctx.adjacent(x, y, lvl, kind)


def build_level(ring: Ring, J: IdealSet, i: Level, kind: str = COZERO) -> GraphLevel:
    """Materialize the full level graph with a symmetric adjacency matrix."""
    verts = vertex_set(ring, J, kind)
    ctx = level_context(ring, J)
    requested_extended = i == EXTENDED
    lvl = ctx.stabilization_bound() if requested_extended else int(i)
    if lvl < 1:
        raise ValueError("level must be >= 1 or EXTENDED")
    concrete = ctx._graphs.get((lvl, kind))
    if concrete is None:
        related = ctx.relation(kind)
        # twin classes are orbits, named by their first ideal xR + J: class
        # index per first id, each class's signature and member mask
        classes: dict[int, int] = {}
        signatures: list[tuple[int, ...]] = []
        class_of = []
        for v in verts:
            ids = ctx.trajectory(v).ideal_ids
            c = classes.setdefault(ids[0], len(classes))
            if c == len(signatures):
                signatures.append(ids[:lvl])
            class_of.append(c)
        members = [0] * len(classes)
        for k, c in enumerate(class_of):
            members[c] |= 1 << k
        neighbours = [0] * len(classes)
        for a, sa in enumerate(signatures):
            for b in range(a, len(signatures)):
                if _prefixes_related(related, sa, signatures[b]):
                    neighbours[a] |= members[b]
                    neighbours[b] |= members[a]
        rows = [neighbours[c] & ~(1 << k) for k, c in enumerate(class_of)]
        concrete = GraphLevel(
            ring=ring,
            ideal=J,
            kind=kind,
            level=lvl,
            requested_extended=False,
            vertices=verts,
            rows=tuple(rows),
        )
        concrete = ctx._graphs.setdefault((lvl, kind), concrete)
    if requested_extended:
        return GraphLevel(
            ring=ring,
            ideal=J,
            kind=kind,
            level=lvl,
            requested_extended=True,
            vertices=concrete.vertices,
            rows=concrete.rows,
        )
    return concrete


def minimal_stabilization_index(ring: Ring, J: IdealSet, kind: str = COZERO) -> int:
    """Smallest level whose graph already equals the stabilized limit."""
    bound = stabilization_bound(ring, J)
    limit = build_level(ring, J, bound, kind)
    sharp = bound
    for i in range(bound - 1, 0, -1):
        if build_level(ring, J, i, kind).rows == limit.rows:
            sharp = i
        else:
            break
    return sharp

