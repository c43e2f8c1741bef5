"""Ideals of finite commutative rings: spans, membership, predicates.

An ``IdealSet`` is an interned, immutable view of an ideal: its members are
a bitset over carrier indices, and two spans with the same closure always
return the very same object, so interned ideals compare by identity.
Interning is the single mutating path and is guarded by the ring's lock.
An ideal's name, its greedy generators, is derived from the bits alone.
Spans and maximal ideals come from the ring (``span_bits``, ``maximal_bits``).
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable, Iterator

from .rings import Ring, _indices, descriptor_string, parse_elements


def immutable(obj, name: str, *value) -> None:
    """``__setattr__`` and ``__delattr__`` of a class whose fields never change."""
    raise AttributeError(f"{type(obj).__name__}.{name} cannot be set or deleted")


class IdealSet:
    __slots__ = ("ring", "bits")

    def __init__(self, ring: Ring, bits: int):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "bits", bits)

    __setattr__ = __delattr__ = immutable

    def contains(self, x: int) -> bool:
        return bool(self.bits >> x & 1)

    def members(self) -> Iterator[int]:
        return _indices(self.bits)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def is_proper(self) -> bool:
        return self.bits != self.ring.full_bits

    def issubset(self, other: "IdealSet") -> bool:
        return self.bits | other.bits == other.bits

    def comparable(self, other: "IdealSet") -> bool:
        union = self.bits | other.bits
        return union == other.bits or union == self.bits

    def generator_labels(self) -> list[str]:
        """The ideal's name: the labels of its greedy generators."""
        return [self.ring.label(g) for g in _greedy_generators(self.ring, self.bits)]

    def __eq__(self, other):
        return (
            isinstance(other, IdealSet)
            and self.ring is other.ring
            and self.bits == other.bits
        )

    def __hash__(self):
        return hash((id(self.ring), self.bits))

    def __repr__(self):
        ring = descriptor_string(self.ring.descriptor)
        gens = ",".join(self.generator_labels()) or "0"
        return f"IdealSet({ring}, <{gens}>, size={self.size})"


def _intern(ring: Ring, bits: int) -> IdealSet:
    table = ring.ideal_intern
    found = table.get(bits)
    if found is not None:
        return found
    with ring._lock:
        found = table.get(bits)
        if found is None:
            found = IdealSet(ring, bits)
            table[bits] = found
    return found


# ---------------------------------------------------------------------------
# Span
# ---------------------------------------------------------------------------

def span(ring: Ring, generators: Iterable[int]) -> IdealSet:
    """Smallest ideal containing the generators, interned, spanned by ``Ring.span_bits``."""
    return _intern(ring, ring.span_bits(tuple(map(ring.check_element, generators)), 1))


def zero_ideal(ring: Ring) -> IdealSet:
    return _intern(ring, 1)


def unit_ideal(ring: Ring) -> IdealSet:
    return _intern(ring, ring.full_bits)


def ideal_sum_bits(J: IdealSet, values: Iterable[int]) -> int:
    """Bits of the ideal J + <values>, not interned."""
    vals = tuple(v for v in values if not J.contains(v))
    return J.ring.span_bits(vals, J.bits) if vals else J.bits


def ideal_sum(J: IdealSet, values: Iterable[int]) -> IdealSet:
    """The ideal J + <values>, interned."""
    return _intern(J.ring, ideal_sum_bits(J, values))


def principal_plus(x: int, n: int, J: IdealSet) -> IdealSet:
    """The ideal x^n R + J."""
    if n < 1:
        raise ValueError("exponent must be >= 1")
    return ideal_sum(J, (J.ring.pow(x, n),))


def span_from_labels(ring: Ring, text: str) -> IdealSet:
    """Span of a comma-separated generator list; ``0`` is the zero ideal."""
    return span(ring, parse_elements(ring, text))


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

def nonunit_bits(J: IdealSet) -> int:
    """Bits of the elements outside J that are not units modulo J.

    xR + J is proper when it lies in a maximal ideal, which then holds J.
    """
    above = [m for m in J.ring.maximal_bits if m | J.bits == m]
    return functools.reduce(operator.or_, above, 0) & ~J.bits


def is_maximal(J: IdealSet) -> bool:
    """J is one of the ring's maximal ideals."""
    return J.bits in J.ring.maximal_bits


def is_prime(J: IdealSet) -> bool:
    """Proper, and xy in J forces x in J or y in J.

    R/J is a finite domain exactly when J is prime, and a finite domain is a
    field (multiplication by a nonzero class is injective, hence onto), so
    the prime ideals of a finite ring are its maximal ideals.
    """
    return is_maximal(J)


def is_semiprime(J: IdealSet) -> bool:
    """Proper, and x^2 in J forces x in J: R/J has no nonzero nilpotent.

    The nilpotents of R/J are √J / J, and in a finite ring √J = rad R + J:
    in each local factor the radical of a proper ideal is the maximal ideal.
    So J is semiprime exactly when it is proper and holds the radical.
    """
    return J.is_proper() and jacobson_radical(J.ring).issubset(J)


def jacobson_radical(ring: Ring) -> IdealSet:
    """The Jacobson radical, which for a finite ring is its nilradical.

    A finite ring is Artinian, so its Jacobson radical, the intersection of
    the maximal ideals, equals its nilradical (Atiyah-Macdonald, Ch. 8).
    """
    return _intern(ring, ring.nilpotent_bits())


def _greedy_generators(ring: Ring, bits: int) -> list[int]:
    """The ideal's canonical generators, read off its bits.

    These are the members, in carrier order, each outside the span of the
    ones picked before it; the zero ideal has none.
    """
    gens: list[int] = []
    have = 1
    for x in _indices(bits):
        if have == bits:
            break
        if not have >> x & 1:
            gens.append(x)
            have = ring.span_bits((x,), have)
    return gens


def maximal_ideals(ring: Ring) -> list[IdealSet]:
    """All maximal ideals, in the order of ``Ring.maximal_generators``."""
    return [_intern(ring, bits) for bits in ring.maximal_bits]
