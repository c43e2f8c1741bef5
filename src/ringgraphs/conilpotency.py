"""Conilpotent elements relative to an ideal and their least exponents.

An element x is conilpotent relative to J when, for some exponent k,
1 - x lies outside x^k R + J and x^k lies outside R(1 - x) + J. The least
such k is the element's conilpotency index; the ring's index is the max
over its conilpotent elements (undefined when there are none).

The exponent search stops at the length of the descending chain x^k R + J,
which is constant from its first repeat. Both non-memberships depend on x^k
only through that ideal (R(1 - x) + J contains J, so it holds x^k exactly
when it contains x^k R + J), so no new witness can appear past the chain.

Only a vertex x whose complement 1 - x is also a vertex can be conilpotent.
If x lies in J, then x^k R + J = J lies inside R(1 - x) + J. If x is a unit
mod J, then x^k R + J = R holds 1 - x. If 1 - x is no vertex, either it lies
in J, so x is a unit mod J, or R(1 - x) + J = R holds x^k.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .graphs import level_context
from .ideals import IdealSet
from .rings import Ring


class ConilpotencyRecord(NamedTuple):
    element: int
    is_conilpotent: bool
    index: Optional[int]
    search_bound: int


def conilpotency_record(ring: Ring, J: IdealSet, x: int) -> ConilpotencyRecord:
    """Scan k = 1 .. bound for the defining pair of non-memberships."""
    ctx = level_context(ring, J)
    power_ideals = ctx.trajectory(ring.check_element(x)).ideals
    bound = len(power_ideals)
    one_minus_x = ring.sub(ring.one, x)
    complement_ideal = ctx.trajectory(one_minus_x).ideals[0]
    for k, power_ideal in enumerate(power_ideals, 1):
        if power_ideal.contains(one_minus_x):
            continue
        if power_ideal.issubset(complement_ideal):
            continue
        return ConilpotencyRecord(x, True, k, bound)
    return ConilpotencyRecord(x, False, None, bound)


def conilpotency_maximum(ring: Ring, J: IdealSet) -> tuple[Optional[int], Optional[int]]:
    """The ring's index and the first element attaining it; (None, None) if none qualifies.

    Scans only the vertices x with 1 - x a vertex, in carrier order: members of
    J, units mod J and x with 1 - x in J or R(1 - x) + J = R are never conilpotent.
    """
    ctx = level_context(ring, J)
    vertex_bits = ctx.vertex_bits()
    best: Optional[int] = None
    first = None
    for x in ctx.vertices():
        if not vertex_bits >> ring.sub(ring.one, x) & 1:
            continue
        rec = conilpotency_record(ring, J, x)
        if rec.is_conilpotent and (best is None or rec.index > best):
            best, first = rec.index, x
    return best, first


def ring_conilpotency_index(ring: Ring, J: IdealSet) -> Optional[int]:
    """Max index over conilpotent elements; None when no element qualifies."""
    return conilpotency_maximum(ring, J)[0]
