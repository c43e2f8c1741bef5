"""Ideals of finite commutative rings: spans, membership, predicates.

An ``IdealSet`` is an interned, immutable view of an ideal: membership is a
bitset over carrier indices, and two spans with the same closure always
return the very same object (and id). Graph construction leans on id
equality for caching, so interning is the single mutating path and is
guarded by the ring's lock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .rings import (
    ModularRing,
    ProductRing,
    Ring,
    descriptor_string,
    prime_factorization,
)


class UnsupportedRingFamily(Exception):
    """Raised when an operation needs ring structure we do not enumerate."""


@dataclass(frozen=True, eq=False)
class IdealSet:
    ring: Ring
    bits: int
    generators: tuple[int, ...]
    ideal_id: int

    def contains(self, x: int) -> bool:
        return bool(self.bits >> x & 1)

    def members(self) -> Iterator[int]:
        bits = self.bits
        x = 0
        while bits:
            if bits & 1:
                yield x
            bits >>= 1
            x += 1

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
        return [self.ring.label(g) for g in self.generators]

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


def _intern(ring: Ring, bits: int, generators: tuple[int, ...]) -> IdealSet:
    table = ring.ideal_intern
    found = table.get(bits)
    if found is not None:
        return found
    with ring._lock:
        found = table.get(bits)
        if found is None:
            found = IdealSet(ring, bits, generators, ideal_id=len(table))
            table[bits] = found
    return found


# ---------------------------------------------------------------------------
# Span
# ---------------------------------------------------------------------------

def _span_bits_worklist(ring: Ring, seeds: Iterable[int], base_bits: int = 1) -> int:
    """Worklist closure under addition and multiplication by every element."""
    bits = base_bits | 1  # 0 always belongs
    work = list(seeds)
    carrier = range(ring.size)
    while work:
        e = work.pop()
        if bits >> e & 1:
            continue
        # close under ring multiples of the new element
        for r in carrier:
            m = ring.mul(r, e)
            if not bits >> m & 1:
                work.append(m)
        # close under addition with everything already present
        rest = bits
        x = 0
        while rest:
            if rest & 1:
                s = ring.add(e, x)
                if not bits >> s & 1:
                    work.append(s)
            rest >>= 1
            x += 1
        bits |= 1 << e
        # the popped element may appear in work again; harmless
    return bits


_MODULAR_BITS_CACHE: dict[tuple[int, int], int] = {}


def _modular_ideal_bits(n: int, d: int) -> int:
    # multiples of d modulo n, as a bitset
    d = math.gcd(d, n)
    if d == 0:
        d = n
    got = _MODULAR_BITS_CACHE.get((n, d))
    if got is None:
        got = 0
        for k in range(0, n, d):
            got |= 1 << k
        _MODULAR_BITS_CACHE[(n, d)] = got
    return got


def _span_bits(ring: Ring, values: tuple[int, ...], extra: Optional[IdealSet]) -> int:
    desc = ring.descriptor
    if isinstance(desc, ModularRing):
        d = desc.modulus
        for v in values:
            d = math.gcd(d, v)
        if extra is not None:
            low = extra.bits & ~1
            if low:
                smallest = (low & -low).bit_length() - 1
                d = math.gcd(d, smallest)
        return _modular_ideal_bits(desc.modulus, d)
    if isinstance(desc, ProductRing):
        # an ideal of a finite product is the product of component ideals
        factors = ring.factor_rings
        comp_values = [tuple(ring.decode(v)[i] for v in values) for i in range(len(factors))]
        comp_extra: list[Optional[IdealSet]] = [None] * len(factors)
        if extra is not None:
            for i, f in enumerate(factors):
                cbits = 0
                for m in extra.members():
                    cbits |= 1 << ring.decode(m)[i]
                comp_extra[i] = _intern(f, cbits, ())
        comp_bits = [
            _span_bits(f, comp_values[i], comp_extra[i]) for i, f in enumerate(factors)
        ]
        members_per_factor = [
            [x for x in range(cb.bit_length()) if cb >> x & 1] for cb in comp_bits
        ]
        bits = 0
        from itertools import product as iproduct

        for combo in iproduct(*members_per_factor):
            bits |= 1 << ring.encode(tuple(combo))
        return bits
    base = extra.bits if extra is not None else 1
    return _span_bits_worklist(ring, values, base)


def span(ring: Ring, generators: Iterable[int]) -> IdealSet:
    """Smallest ideal containing the generators, interned.

    Modular and product rings use exact closed forms (validated against the
    generic worklist closure in the test suite); quotient rings run the
    worklist directly.
    """
    gens = tuple(sorted({g for g in generators if g != ring.zero}))
    bits = _span_bits(ring, gens, None)
    return _intern(ring, bits, gens)


def zero_ideal(ring: Ring) -> IdealSet:
    return _intern(ring, 1, ())


def unit_ideal(ring: Ring) -> IdealSet:
    return _intern(ring, ring.full_bits, (ring.one,))


def ideal_sum(J: IdealSet, values: Iterable[int]) -> IdealSet:
    """The ideal J + <values>, interned."""
    ring = J.ring
    vals = tuple(sorted({v for v in values if v != ring.zero}))
    if not vals:
        return J
    if all(J.contains(v) for v in vals):
        return J
    bits = _span_bits(ring, vals, J)
    gens = tuple(sorted(set(J.generators) | set(vals)))
    return _intern(ring, bits, gens)


def principal_plus(x: int, n: int, J: IdealSet) -> IdealSet:
    """The ideal x^n R + J."""
    if n < 1:
        raise ValueError("exponent must be >= 1")
    return ideal_sum(J, (J.ring.pow(x, n),))


def span_from_labels(ring: Ring, text: str) -> IdealSet:
    """Span of a comma-separated generator list; ``0`` is the zero ideal."""
    from .rings import parse_elements

    return span(ring, parse_elements(ring, text))


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

def is_maximal(J: IdealSet) -> bool:
    """Proper, and adjoining any outside element generates the whole ring."""
    if not J.is_proper():
        return False
    ring = J.ring
    one = ring.one
    for x in range(ring.size):
        if J.contains(x):
            continue
        if not ideal_sum(J, (x,)).contains(one):
            return False
    return True


def is_prime(J: IdealSet) -> bool:
    """Proper, and xy in J forces x in J or y in J (exhaustive pair scan)."""
    if not J.is_proper():
        return False
    ring = J.ring
    outside = [x for x in range(ring.size) if not J.contains(x)]
    for x in outside:
        for y in outside:
            if J.contains(ring.mul(x, y)):
                return False
    return True


def is_semiprime(J: IdealSet) -> bool:
    """Proper, and x^2 in J forces x in J.

    For commutative rings the squared-element test is equivalent to the
    all-exponents condition; the equivalence is property-tested separately.
    """
    if not J.is_proper():
        return False
    ring = J.ring
    for x in range(ring.size):
        if not J.contains(x) and J.contains(ring.mul(x, x)):
            return False
    return True


def jacobson_radical(ring: Ring) -> IdealSet:
    """Elements x with 1 - x*r a unit for every r, as an ideal."""
    cached = getattr(ring, "_jacobson", None)
    if cached is not None:
        return cached
    units = ring.unit_bits()
    one = ring.one
    desc = ring.descriptor
    bits = 0
    if isinstance(desc, ModularRing) and ring.size > 512:
        n = desc.modulus
        rs = np.arange(n, dtype=np.int64)
        unit_mask = np.array([bool(units >> i & 1) for i in range(n)])
        for x in range(n):
            if unit_mask[(one - x * rs) % n].all():
                bits |= 1 << x
    else:
        for x in range(ring.size):
            if all(
                units >> ring.sub(one, ring.mul(x, r)) & 1 for r in range(ring.size)
            ):
                bits |= 1 << x
    gens = _greedy_generators(ring, bits)
    result = _intern(ring, bits, gens)
    ring._jacobson = result
    return result


def _greedy_generators(ring: Ring, bits: int) -> tuple[int, ...]:
    """A small generating set for the ideal with the given member bitset."""
    gens: list[int] = []
    have = 1
    x = 0
    rest = bits
    while rest:
        if rest & 1 and not have >> x & 1:
            gens.append(x)
            have = _span_bits(ring, tuple(gens), None)
            if have == bits:
                break
        rest >>= 1
        x += 1
    return tuple(gens)


def maximal_ideals(ring: Ring) -> list[IdealSet]:
    """All maximal ideals, for modular rings and products of modular rings.

    Quotient rings are not enumerated here; callers must supply candidate
    ideals and test is_maximal directly.
    """
    desc = ring.descriptor
    if isinstance(desc, ModularRing):
        out = []
        for p in prime_factorization(desc.modulus):
            out.append(span(ring, (p % desc.modulus,)))
        return out
    if isinstance(desc, ProductRing):
        if not all(isinstance(f, ModularRing) for f in desc.factors):
            raise UnsupportedRingFamily(
                "maximal ideals are enumerated only for modular rings and their products"
            )
        out = []
        for i, f in enumerate(ring.factor_rings):
            for m in maximal_ideals(f):
                bits = 0
                for a in range(ring.size):
                    if m.contains(ring.decode(a)[i]):
                        bits |= 1 << a
                gens = _greedy_generators(ring, bits)
                out.append(_intern(ring, bits, gens))
        return out
    raise UnsupportedRingFamily(
        "maximal ideals are enumerated only for modular rings and their products"
    )

