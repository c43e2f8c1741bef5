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
zero-divisor exactly when it is not a unit. So x is a vertex when xR + J is
proper, that is, when x lies in a maximal ideal above J: the vertex set is
their union less J, and needs no span of its own (``ideals.nonunit_bits``).

Membership of any element in any ideal depends only on the ideal the element
generates, so both adjacency tests factor through the interned ideals
x^mR + J, and one loop over those ideals serves both kinds. Only the
relation on an ideal pair (A, B) differs: the cozero kind asks for A and B to
be incomparable, the zero kind for A != J, B != J and p * q in J, where p and
q are powers generating A and B over J. The zero relation is exact because
x^n y^m lies in J iff the product (x^nR + J)(y^mR + J) lies in J.

Adjacency at level i therefore depends on x only through its signature, the
ideals x^mR + J for m <= i, and vertices sharing a signature are twins. A
level graph is a blow-up of the small graph on signature classes (the
compressed zero-divisor graph of Mulay and of Anderson--LaGrange). As some
m, n <= i suffice, each class pair has a first level F, the least max(m, n)
over its related ideal pairs: level i is the threshold F <= i, and the sharp
index is the largest F. A class can be adjacent to itself in the zero kind
(x^n x^m in J), never in the cozero kind: one chain's ideals are comparable.

The per-element ideals x^mR + J form a descending chain that is constant from
its first repeat: x^{m+1} = x^m * x gives the inclusion, and if
x^m = x^{m+1}r + j with j in J, multiplying by x keeps the chain equal from
then on. The chain's length bounds every exponent search and yields the
stabilization level at which the graphs stop growing. Two consequences
decide claims without a search: x^n y lies in yR, so a power multiple of y
is never adjacent to y at level 1; and for an idempotent y,
(xy)^m = x^m y lies in y^nR, so xy is never adjacent to y at any level.

The chain is constant on each orbit Ux + J, for U the units of R: with u a
unit and j in J, (ux + j)^m lies in u^m x^m + J with u^m a unit, so
(ux + j)^m R + J = x^m R + J for every m. Conversely, if xR + J = yR + J then
x and y are associates in the finite ring R/J, hence unit multiples of each
other there, and the unit lifts to R; so the twin classes are exactly the
orbits, at every level, and the orbit of x is the y in I = xR + J with
yR + J = I. No product by a unit finds it: in each local factor, Nakayama's
lemma on the cyclic module I/J (Atiyah-Macdonald, Cor. 2.7) says y generates
it iff y lies outside mI + J, unless that is I. So the orbit is I less each
K = J + mxR, m maximal, that is not I, and K is one span of the products gx
for g generating m. ``LevelContext.classes`` sweeps the vertex bitset once:
the least vertex not yet in a class builds its chain and its orbit, and the
whole orbit joins that class. ``trajectory`` reads a vertex's chain off its
class; a non-vertex has the one-ideal chain J (x in J) or R (x a unit
modulo J) and needs no span.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from functools import lru_cache
from itertools import combinations_with_replacement, product
from typing import Iterator, NamedTuple, Optional, Sequence, TypeVar, Union

from .ideals import IdealSet, _intern, ideal_sum, ideal_sum_bits, immutable, nonunit_bits, unit_ideal
from .rings import _RING_CACHE, _RING_CACHE_LOCK, Ring, descriptor_string, set_bit_items

COZERO = "cozero"
ZERO = "zero"
EXTENDED = "extended"

Level = Union[int, str]
T = TypeVar("T")


class NotAVertex(Exception):
    """Adjacency was queried for an element outside the vertex set."""


def later_neighbours(rows: Sequence[int], items: Sequence[T]) -> Iterator[list[T]]:
    """For each k, the ``items[j]`` with j > k and bit j of ``rows[k]`` set.

    Each distinct row's items are read off once, and every row equal to it (a
    twin) slices its own tail; the list is dropped after the last such row.
    """
    last = {row: k for k, row in enumerate(rows)}
    shared: dict[int, list[T]] = {}
    for k, row in enumerate(rows):
        got = shared.pop(row, None)
        if got is None:
            got = list(set_bit_items(row, items))
        if last[row] > k:
            shared[row] = got
        yield got[(row & ((2 << k) - 1)).bit_count() :]


class PowerTrajectory(NamedTuple):
    """The ideals x^m R + J for m = 1, 2, ... up to the chain's first repeat.

    ``ideals`` is strictly descending and ends at the stable ideal, which
    every later exponent keeps. ``powers[m - 1]`` is the m-th power of the
    member that built the chain and generates ``ideals[m - 1]`` over J; the
    chain is the orbit's, the powers one member's, so they are not compared.
    """

    ideals: tuple[IdealSet, ...]
    powers: tuple[int, ...]

    def __eq__(self, other):
        return isinstance(other, PowerTrajectory) and self.ideals == other.ideals

    __ne__ = object.__ne__

    def __hash__(self):
        return hash(self.ideals)

    def ideal_at(self, m: int) -> IdealSet:
        if m < 1:
            raise ValueError("exponent must be >= 1")
        return self.ideals[min(m, len(self.ideals)) - 1]


class GraphLevel:
    """A level graph: sorted vertices plus a symmetric adjacency bitset."""

    # rows[k] bit j set iff vertices[k] ~ vertices[j]
    __slots__ = ("ring", "ideal", "kind", "level", "requested_extended", "vertices", "rows",
                 "_pos_cache")

    def __init__(self, ring: Ring, ideal: IdealSet, kind: str, level: int,
                 requested_extended: bool, vertices: tuple[int, ...], rows: tuple[int, ...]):
        values = (ring, ideal, kind, level, requested_extended, vertices, rows, None)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    __setattr__ = __delattr__ = immutable

    def position_of(self, x: int) -> int:
        pos = self._positions().get(x)
        if pos is None:
            raise NotAVertex(f"{self.ring.label(x)} is not a vertex")
        return pos

    def _positions(self) -> dict[int, int]:
        pos = self._pos_cache
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
        for v, later in zip(verts, later_neighbours(self.rows, verts)):
            for w in later:
                yield (v, w)

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
    """Shared vertex, trajectory and built-graph caches for one (ring, J) pair."""

    def __init__(self, ring: Ring, J: IdealSet):
        self.ring = ring
        self.J = J
        self._vertex_bits: Optional[int] = None
        self._vertices: Optional[tuple[int, ...]] = None
        self._classes: Optional[tuple] = None
        self._first: dict[str, list[list[Optional[int]]]] = {}
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
        if not self.vertex_bits() >> x & 1:
            # every power of a member of J stays in J, of a unit mod J is a unit
            I = self.J if self.J.contains(x) else unit_ideal(self.ring)
            return PowerTrajectory(ideals=(I,), powers=(x,))
        class_of, trajs, _ = self.classes()
        return trajs[class_of[bisect_left(self.vertices(), x)]]

    def classes(self) -> tuple[tuple[int, ...], tuple[PowerTrajectory, ...], tuple[int, ...]]:
        """Each vertex's twin class (orbit), each class's trajectory and member mask.

        Classes are numbered by first member: the least vertex not yet in a
        class builds the chain, and its whole orbit joins the class.
        """
        if self._classes is None:  # fixed by (ring, J), so racing fills agree
            ring, J, verts = self.ring, self.J, self.vertices()
            class_of = [0] * len(verts)
            trajs: list[PowerTrajectory] = []
            members: list[int] = []
            left = self.vertex_bits()
            while left:
                x = (left & -left).bit_length() - 1
                ideals: list[IdealSet] = []
                powers: list[int] = []
                p = x  # the running power x^m
                while True:
                    I = ideal_sum(J, (p,))
                    if ideals and I is ideals[-1]:
                        break
                    ideals.append(I)
                    powers.append(p)
                    p = ring.mul(p, x)
                # the orbit Ux + J is I = xR + J less each K = J + mxR, m maximal, that is not I
                I = orbit = ideals[0].bits
                for gens in ring.maximal_generators:
                    K = ideal_sum_bits(J, [ring.mul(g, x) for g in gens])
                    if K != I:
                        orbit &= ~K
                left &= ~orbit
                k = mask = 0
                for v in set_bit_items(orbit, range(ring.size)):
                    k = bisect_left(verts, v, k)
                    class_of[k] = len(trajs)
                    mask |= 1 << k
                trajs.append(PowerTrajectory(ideals=tuple(ideals), powers=tuple(powers)))
                members.append(mask)
            self._classes = tuple(class_of), tuple(trajs), tuple(members)
        return self._classes

    # levels and adjacency ------------------------------------------------

    def level(self, i: Level) -> int:
        """The concrete level of ``i``: an int >= 1, or EXTENDED for the stable one."""
        if i == EXTENDED:
            return self.stabilization_bound()
        if type(i) is not int or i < 1:
            raise ValueError(f"level must be an int >= 1 or {EXTENDED!r}, not {i!r}")
        return i

    def first_level(self, kind: str, ta: PowerTrajectory, tb: PowerTrajectory) -> Optional[int]:
        """The least max(m, n) over the related ideal pairs of two chains, or None.

        The relation is incomparability for the cozero kind; for the zero
        kind, both ideals differ from J and their generating powers multiply
        into J. Only a chain's stable ideal can be J, and a zero pair stays
        related along both chains until then (p x^k q y^l lies in J with pq),
        so level d needs only the d-th powers, or each chain's last before J.
        """
        A, B = ta.ideals, tb.ideals
        if kind == COZERO:
            pairs = _pairs_by_level(len(A), len(B))
            return next((max(m, n) + 1 for m, n in pairs if not A[m].comparable(B[n])), None)
        J, mul = self.J, self.ring.mul
        P, Q = (t.powers[: len(t.ideals) - (t.ideals[-1] is J)] for t in (ta, tb))
        return next((d for d in range(1, max(len(P), len(Q)) + 1)
                     if J.contains(mul(P[min(d, len(P)) - 1], Q[min(d, len(Q)) - 1]))), None)

    def first_levels(self, kind: str) -> list[list[Optional[int]]]:
        """The matrix F of ``first_level`` over pairs of twin classes, cached per kind."""
        F = self._first.get(kind)
        if F is None:  # fixed by (ring, J, kind), so racing fills agree
            _, trajs, members = self.classes()
            F = [[None] * len(trajs) for _ in trajs]
            for a, b in combinations_with_replacement(range(len(trajs)), 2):
                if a != b or members[a] & (members[a] - 1):  # a lone vertex has no pair
                    F[a][b] = F[b][a] = self.first_level(kind, trajs[a], trajs[b])
            F = self._first.setdefault(kind, F)
        return F

    def is_edgeless(self, i: int, kind: str, among: Optional[Sequence[int]] = None) -> bool:
        """No two vertices of the classes ``among`` (default: all) are adjacent at level i.

        F is set only on class pairs that hold a vertex pair: no entry among them is <= i.
        """
        F = self.first_levels(kind)
        among = range(len(F)) if among is None else among
        return not any((f := F[a][b]) is not None and f <= i for a in among for b in among)

    def is_complete(self, i: int, kind: str) -> bool:
        """Every vertex pair is adjacent at level i: F <= i on every class pair holding one.

        Such a pair is two classes, or one class of two or more members. A
        cozero class is never adjacent to itself, so a cozero level with such
        a class is not complete.
        """
        several = [mask & (mask - 1) != 0 for mask in self.classes()[2]]
        if kind == COZERO and any(several):
            return False
        F = self.first_levels(kind)
        return all((f := F[a][b]) is not None and f <= i
                   for a in range(len(F)) for b in range(a, len(F)) if a != b or several[a])

    def adjacent(self, x: int, y: int, i: int, kind: str) -> bool:
        first = None if x == y else self.first_level(kind, self.trajectory(x), self.trajectory(y))
        return first is not None and first <= i

    def stabilization_bound(self) -> int:
        return max((len(t.ideals) for t in self.classes()[1]), default=1)


@lru_cache(maxsize=None)
def _pairs_by_level(la: int, lb: int) -> list[tuple[int, int]]:
    """The index pairs (m, n) of two chains of these lengths, by max(m, n)."""
    return sorted(product(range(la), range(lb)), key=max)


_CONTEXTS: dict[tuple[int, int], LevelContext] = {}
_CONTEXT_LOCK = threading.Lock()


def level_context(ring: Ring, J: IdealSet) -> LevelContext:
    if J.ring.descriptor != ring.descriptor:
        raise ValueError(f"the ideal belongs to {J.ring!r}, not to {ring!r}")
    if J.ring is not ring:  # a ring rebuilt after clear_caches: its own J serves it
        J = _intern(ring, J.bits)
    key = (id(ring), J.bits)
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        with _CONTEXT_LOCK:
            ctx = _CONTEXTS.get(key)
            if ctx is None:
                ctx = LevelContext(ring, J)
                _CONTEXTS[key] = ctx
    return ctx


def clear_caches() -> None:
    """Drop every cached ring and level context.

    Each ring's interned ideals and each context's built levels go with them.
    Objects already held keep working; later calls build fresh ones.
    """
    with _RING_CACHE_LOCK:
        _RING_CACHE.clear()
    with _CONTEXT_LOCK:
        _CONTEXTS.clear()


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def _check_kind(kind: str) -> None:
    if kind not in (COZERO, ZERO):
        raise ValueError(f"unknown graph kind {kind!r}")


def vertex_set(ring: Ring, J: IdealSet, kind: str = COZERO) -> tuple[int, ...]:
    """Sorted vertex list; empty when J is maximal or not proper."""
    _check_kind(kind)
    return level_context(ring, J).vertices()


def power_trajectory(ring: Ring, J: IdealSet, x: int) -> PowerTrajectory:
    """The descending chain of ideals x^m R + J up to its first repeat."""
    return level_context(ring, J).trajectory(ring.check_element(x))


def stabilization_bound(ring: Ring, J: IdealSet) -> int:
    """A level at and beyond which every level graph is the same.

    Takes the max chain length over the vertex trajectories: past that
    exponent no new power ideal (hence no new adjacency witness) exists.
    """
    return level_context(ring, J).stabilization_bound()


def adjacent(ring: Ring, J: IdealSet, x: int, y: int, i: Level, kind: str = COZERO) -> bool:
    """Adjacency of two vertices at a level (or at the stabilized limit)."""
    _check_kind(kind)
    ctx = level_context(ring, J)
    vbits = ctx.vertex_bits()
    for v in (x, y):
        if not vbits >> ring.check_element(v) & 1:
            raise NotAVertex(f"{ring.label(v)} is not a vertex")
    return ctx.adjacent(x, y, ctx.level(i), kind)


def _level_rows(ctx: LevelContext, lvl: int, kind: str) -> Iterator[int]:
    """The adjacency rows of one level: the threshold F <= lvl, expanded by class."""
    class_of, _, members = ctx.classes()
    # the member masks are disjoint, so their sum is their union
    neighbours = [sum(mask for mask, f in zip(members, row) if f is not None and f <= lvl)
                  for row in ctx.first_levels(kind)]
    return (neighbours[c] & ~(1 << k) for k, c in enumerate(class_of))


def build_level(ring: Ring, J: IdealSet, i: Level, kind: str = COZERO) -> GraphLevel:
    """Materialize the full level graph with a symmetric adjacency matrix."""
    verts = vertex_set(ring, J, kind)
    ctx = level_context(ring, J)
    lvl = ctx.level(i)
    concrete = ctx._graphs.get((lvl, kind))
    if concrete is None:
        concrete = GraphLevel(ring, J, kind, lvl, False, verts, tuple(_level_rows(ctx, lvl, kind)))
        concrete = ctx._graphs.setdefault((lvl, kind), concrete)
    if i != EXTENDED:
        return concrete
    # the stable level, flagged as asked for; it shares the concrete level's rows
    return GraphLevel(concrete.ring, concrete.ideal, kind, lvl, True,
                      concrete.vertices, concrete.rows)


def minimal_stabilization_index(ring: Ring, J: IdealSet, kind: str = COZERO) -> int:
    """Smallest level whose graph already equals the stabilized limit.

    That is the largest finite first level F of a class pair, or 1 if there
    is none; no level is built.
    """
    _check_kind(kind)
    F = level_context(ring, J).first_levels(kind)
    return max((f for row in F for f in row if f is not None), default=1)
