"""Independent brute-force oracles used to cross-check the library.

The ring oracles work on raw element sets, the ring's ``mul`` and their
own digit-wise addition: no ``ring.add``, no IdealSet, no interning, no
trajectory caches. The graph oracles read a built graph one vertex pair at
a time through ``has_edge``, never a whole adjacency row. Costs are
quadratic and worse on purpose; these are the referees, not the
implementation.
"""

from __future__ import annotations

import functools
import itertools
import math

from ringgraphs.claims import GRID_RINGS, grid_ideals
from ringgraphs.graphs import COZERO, EXTENDED, ZERO, build_level
from ringgraphs.ideals import span_from_labels
from ringgraphs.rings import ModularRing, ProductRing, build_ring


@functools.cache
def _radices(desc):
    """Digit radices of an element index, least significant first.

    Z_n is one residue digit; a product concatenates its factors' digits,
    first factor most significant; a quotient ring has one base-m digit per
    residue monomial, the first monomial least significant.
    """
    if isinstance(desc, ModularRing):
        return (desc.modulus,)
    if isinstance(desc, ProductRing):
        return tuple(r for f in reversed(desc.factors) for r in _radices(f))
    return (desc.coefficient_modulus,) * math.prod(desc.exponents)


def digit_add(ring, a, b):
    """a + b read off the descriptor alone, one digit at a time."""
    out, weight = 0, 1
    for radix in _radices(ring.descriptor):
        a, x = divmod(a, radix)
        b, y = divmod(b, radix)
        out += (x + y) % radix * weight
        weight *= radix
    return out


def digit_neg(ring, a):
    """-a read off the descriptor alone, one digit at a time."""
    out, weight = 0, 1
    for radix in _radices(ring.descriptor):
        a, x = divmod(a, radix)
        out += -x % radix * weight
        weight *= radix
    return out


def closure_span(ring, generators):
    """Ideal closure as a plain fixpoint over sums and ring multiples."""
    current = {ring.zero, *generators}
    while True:
        nxt = set(current)
        for a in current:
            for b in current:
                nxt.add(digit_add(ring, a, b))
        for g in current:
            for r in range(ring.size):
                nxt.add(ring.mul(r, g))
        if nxt == current:
            return current
        current = nxt


def linear_combinations_span(ring, g1, g2):
    """All r*g1 + s*g2 for a two-generator ideal, by direct enumeration."""
    return {
        digit_add(ring, ring.mul(r, g1), ring.mul(s, g2))
        for r in range(ring.size)
        for s in range(ring.size)
    }


def coset_set(ring, j_members, value):
    """The set value*R + J by direct enumeration."""
    multiples = {ring.mul(value, r) for r in range(ring.size)}
    return {digit_add(ring, a, j) for a in multiples for j in j_members}


@functools.lru_cache(maxsize=2)
def _multiples(ring):
    """The set xR for each x, by multiplying out; kept for the last two rings."""
    return [frozenset(ring.mul(x, r) for r in range(ring.size)) for x in range(ring.size)]


def naive_vertices(ring, j_members, kind):
    out = []
    if kind == "cozero":
        # 1 = xr + j with j in J exactly when xR meets the set 1 - J
        one_minus_j = {digit_add(ring, ring.one, digit_neg(ring, j)) for j in j_members}
        multiples = _multiples(ring)
        for x in range(ring.size):
            if x not in j_members and not multiples[x] & one_minus_j:
                out.append(x)
    else:
        outside = [y for y in range(ring.size) if y not in j_members]
        for x in outside:
            if any(ring.mul(x, y) in j_members for y in outside):
                out.append(x)
    return out


def naive_is_prime(ring, j_members):
    """Proper, and no two elements outside J multiply into J (pair scan)."""
    outside = [x for x in range(ring.size) if x not in j_members]
    return bool(outside) and not any(
        ring.mul(x, y) in j_members for x in outside for y in outside
    )


def naive_is_semiprime(ring, j_members):
    """Proper, and x^2 in J forces x in J (squaring scan)."""
    return len(j_members) < ring.size and not any(
        x not in j_members and ring.mul(x, x) in j_members for x in range(ring.size)
    )


def naive_units(ring):
    """The x with xy = 1 for some y.

    An inverse is unique, so an x below its inverse marks both, and each x
    left unmarked needs only the y from x on.
    """
    units = set()
    for x in range(ring.size):
        if x not in units:
            for y in range(x, ring.size):
                if ring.mul(x, y) == ring.one:
                    units |= {x, y}
                    break
    return units


def _poly_times(a, b, p):
    """The product of two coefficient tuples (ascending) over F_p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def _monics(p, degree):
    return [(*tail, 1) for tail in itertools.product(range(p), repeat=degree)]


def naive_monic_factors(coeffs, p):
    """The distinct monic irreducible factors of a monic f over F_p.

    g is irreducible when no product of two monic polynomials of positive
    degree is g, and it divides f when g*h = f for some monic h: every
    product is multiplied out, nothing is divided.
    """
    f = tuple(c % p for c in coeffs)
    n = len(f) - 1
    reducible = {
        _poly_times(a, b, p)
        for d in range(1, n)
        for e in range(1, n - d + 1)
        for a in _monics(p, d)
        for b in _monics(p, e)
    }
    return {
        g
        for d in range(1, n + 1)
        for g in _monics(p, d)
        if g not in reducible and any(_poly_times(g, h, p) == f for h in _monics(p, n - d))
    }


def naive_nilpotents(ring):
    """The x with x^k = 0 for some k <= |R|, that is, with x^|R| = 0."""
    return {x for x in range(ring.size) if ring.pow(x, ring.size) == ring.zero}


def naive_adjacent(ring, j_members, x, y, i, kind, coset=None):
    """Literal definition, one coset enumeration per exponent pair.

    ``coset(v)`` gives the set v*R + J; it defaults to ``coset_set``.
    """
    if coset is None:
        coset = functools.partial(coset_set, ring, j_members)
    if kind == "cozero":
        for m in range(1, i + 1):
            xm = ring.pow(x, m)
            for n in range(1, i + 1):
                yn = ring.pow(y, n)
                if xm not in coset(yn) and yn not in coset(xm):
                    return True
        return False
    for n in range(1, i + 1):
        xn = ring.pow(x, n)
        if xn in j_members:
            continue
        for m in range(1, i + 1):
            ym = ring.pow(y, m)
            if ym in j_members:
                continue
            if ring.mul(xn, ym) in j_members:
                return True
    return False


def naive_edges(ring, j_members, i, kind):
    """Every adjacent vertex pair, enumerating each coset v*R + J once."""
    verts = naive_vertices(ring, j_members, kind)
    coset = functools.cache(functools.partial(coset_set, ring, j_members))
    return {
        (x, y)
        for x, y in itertools.combinations(verts, 2)
        if naive_adjacent(ring, j_members, x, y, i, kind, coset)
    }


def power_rho(ring, x):
    """Preperiod and period of the value sequence x, x^2, x^3, ...

    The sequence is eventually periodic with preperiod + period <= size.
    """
    seen = {}
    v, m = x, 1
    while v not in seen:
        seen[v] = m
        v, m = ring.mul(v, x), m + 1
    return seen[v] - 1, m - seen[v]


def poly_mul(ring, a, b):
    """Product in Z_m[x_1..x_k]/(relators), by expanding exponent dicts.

    Reads the relators off the descriptor and reduces by its own long
    division, independently of the ring's structure constants. Elements are
    coefficient vectors over the residue monomials in ascending lex order,
    read as base-m digits with the first monomial least significant.
    """
    desc = ring.descriptor
    m, bounds, v = desc.coefficient_modulus, desc.exponents, desc.modulus_var
    monomials = sorted(itertools.product(*(range(e) for e in bounds)))

    def terms(a):
        out = {}
        for mono in monomials:
            a, c = divmod(a, m)
            if c:
                out[mono] = c
        return out

    prod = {}
    for ea, ca in terms(a).items():
        for eb, cb in terms(b).items():
            e = tuple(p + q for p, q in zip(ea, eb))
            prod[e] = (prod.get(e, 0) + ca * cb) % m
    # x_i^e = 0 for every variable but the modulus one
    prod = {
        e: c for e, c in prod.items()
        if c and all(d < bound for i, (d, bound) in enumerate(zip(e, bounds)) if i != v)
    }
    if v is not None:
        # divide by the monic modulus f, leading terms of highest degree first
        f = desc.modulus_coeffs
        deg = len(f) - 1
        while True:
            over = [e for e, c in prod.items() if c and e[v] >= deg]
            if not over:
                break
            lead = max(over, key=lambda e: e[v])
            c = prod[lead]
            for k, fk in enumerate(f):
                e = lead[:v] + (lead[v] - deg + k,) + lead[v + 1:]
                prod[e] = (prod.get(e, 0) - c * fk) % m
    return sum(prod.get(mono, 0) * m**slot for slot, mono in enumerate(monomials))


def brute_conilpotency_index(ring, j_members):
    """Ring conilpotency index by literal scan with coset enumeration."""
    best = None
    for x in range(ring.size):
        one_minus = digit_add(ring, ring.one, digit_neg(ring, x))
        complement = coset_set(ring, j_members, one_minus)
        for k in range(1, ring.size + 2):
            xk = ring.pow(x, k)
            if one_minus not in coset_set(ring, j_members, xk) and xk not in complement:
                if best is None or k > best:
                    best = k
                break
    return best


def brute_is_multipartite(g):
    """Exhaustive partition search; only sane for tiny vertex sets."""
    verts = list(g.vertices)
    if not verts:
        return True

    def partitions(items):
        if not items:
            yield []
            return
        head, *rest = items
        for part in partitions(rest):
            for k in range(len(part)):
                yield part[:k] + [[head] + part[k]] + part[k + 1 :]
            yield [[head]] + part

    for candidate in partitions(verts):
        ok = True
        for block in candidate:
            for x, y in itertools.combinations(block, 2):
                if g.has_edge(x, y):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        for b1, b2 in itertools.combinations(candidate, 2):
            for x in b1:
                for y in b2:
                    if not g.has_edge(x, y):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def pairwise_multipartite_parts(g):
    """Parts of a complete multipartite graph, from vertex pairs, else None.

    The parts are the classes of "non-adjacent or equal" when that relation
    is transitive, in order of their first vertex.
    """
    verts = g.vertices
    classes = {
        x: tuple(y for y in verts if y == x or not g.has_edge(x, y)) for x in verts
    }
    if any(classes[y] != block for block in classes.values() for y in block):
        return None
    return tuple(dict.fromkeys(classes.values()))


def pairwise_partition_verdict(g, parts):
    """(holds, first offending pair, reason), scanning pairs in vertex order."""
    part_of = {v: k for k, part in enumerate(parts) for v in part}
    for x, y in itertools.combinations(g.vertices, 2):
        same = part_of[x] == part_of[y]
        edge = g.has_edge(x, y)
        if same and edge:
            return False, (x, y), "edge inside a part"
        if not same and not edge:
            return False, (x, y), "missing cross-part edge"
    return True, None, ""


def pairwise_is_subgraph(g1, g2):
    """Vertex containment plus every edge of g1 being an edge of g2."""
    if not set(g1.vertices) <= set(g2.vertices):
        return False
    return all(
        g2.has_edge(x, y)
        for x, y in itertools.combinations(g1.vertices, 2)
        if g1.has_edge(x, y)
    )


def pairwise_induced_edges(g, keep):
    """The edges of g with both ends kept, in vertex order."""
    verts = [v for v in g.vertices if v in keep]
    return [(x, y) for x, y in itertools.combinations(verts, 2) if g.has_edge(x, y)]


def grid_graphs():
    """Every grid (ring, ideal) at levels 1-3 and ext, both kinds.

    This is the sweep the differential tests run their referees over.
    """
    for name in GRID_RINGS:
        ring = build_ring(name)
        for label in grid_ideals(name):
            J = span_from_labels(ring, label)
            for kind in (COZERO, ZERO):
                for i in (1, 2, 3, EXTENDED):
                    yield build_level(ring, J, i, kind)
