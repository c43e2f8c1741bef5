"""Ideal engine: spans, interning, predicates, radical, maximal ideals."""

import itertools
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, strategies as st

from oracles import (
    closure_span,
    coset_set,
    linear_combinations_span,
    member_walk_span,
    naive_edges,
    naive_is_prime,
    naive_is_semiprime,
    naive_nilpotents,
    naive_units,
    naive_vertices,
)
from ringgraphs.ideals import (
    ideal_sum,
    is_maximal,
    is_prime,
    is_semiprime,
    jacobson_radical,
    maximal_ideals,
    principal_plus,
    span,
    span_from_labels,
    zero_ideal,
)
from ringgraphs.graphs import (
    COZERO,
    ZERO,
    build_level,
    level_context,
    minimal_stabilization_index,
    stabilization_bound,
    vertex_set,
)
from ringgraphs.rings import PolyQuotientRing, ProductRing, build_ring
from test_graphs import NONLOCAL_RINGS, ORBIT_RINGS, SPLIT_MODULUS_RINGS
from test_rings import PRODUCT_RINGS, QUOTIENT_RINGS

ORACLE_RINGS = [
    "Z6",
    "Z12",
    "Z18",
    "Z2xZ2",
    "Z4xZ9",
    "Z4[x]/(x^2)",
    "Z2[x]/(x^2)",
    "Z4[t]/(t^2+t+1)",
    "Z2[x,y]/(x^2,y^2)",
]

# the rings whose units, nilpotents and semiprime ideals are checked against
# the referees: the oracle rings, every product ring, and non-local quotients
STRUCTURE_RINGS = list(dict.fromkeys([
    *ORACLE_RINGS,
    *PRODUCT_RINGS,
    "Z6[x]/(x^2)",
    "Z2[t]/(t^2+t)",
    "Z10[x]/(x^2)",
    "Z2[x,y]/(x^3+x,y^2)",
    *SPLIT_MODULUS_RINGS,
]))


def members(ideal):
    return set(ideal.members())


def test_span_examples():
    z12 = build_ring("Z12")
    assert members(span(z12, [4])) == {0, 4, 8}
    assert members(span(z12, [6, 4])) == {0, 2, 4, 6, 8, 10}
    assert members(span(z12, [6, 4])) == linear_combinations_span(z12, 6, 4)
    q = build_ring("Z2[x]/(x^2)")
    x = q.parse_label("x")
    assert members(span(q, [x])) == {q.zero, x}


@pytest.mark.parametrize("name", ORACLE_RINGS)
def test_span_matches_closure_oracle(name):
    ring = build_ring(name)
    step = max(1, ring.size // 9)
    for g1 in range(0, ring.size, step):
        for g2 in range(0, ring.size, step):
            assert members(span(ring, [g1, g2])) == closure_span(ring, [g1, g2])


def test_span_idempotent_and_interned():
    z12 = build_ring("Z12")
    a = span(z12, [4])
    b = span(z12, list(a.members()))
    assert a is b
    assert span(z12, [2]) is span(z12, [10])
    assert span(z12, [4]) is span(z12, [4, 8])
    assert span(z12, [2]) is not span(z12, [4])


def test_interning_is_thread_safe():
    ring = build_ring("Z36")
    with ThreadPoolExecutor(max_workers=8) as pool:
        ideals = list(pool.map(lambda g: span(ring, [g]), [6] * 64))
    assert all(ideal is ideals[0] for ideal in ideals)


def test_principal_plus_examples():
    z12 = build_ring("Z12")
    J0 = zero_ideal(z12)
    assert members(principal_plus(2, 1, J0)) == {0, 2, 4, 6, 8, 10}
    assert members(principal_plus(10, 2, J0)) == {0, 4, 8}
    J6 = span(z12, [6])
    assert members(principal_plus(3, 2, J6)) == {0, 3, 6, 9}


@pytest.mark.parametrize("name", ORACLE_RINGS)
def test_principal_plus_contains_power_and_ideal(name):
    ring = build_ring(name)
    for J in (zero_ideal(ring), span(ring, [ring.size // 2])):
        for x in range(0, ring.size, max(1, ring.size // 10)):
            for n in (1, 2, 3):
                I = principal_plus(x, n, J)
                assert J.issubset(I)
                assert I.contains(ring.pow(x, n))
                assert members(I) == coset_set(ring, set(J.members()), ring.pow(x, n))


def test_is_maximal_examples():
    z12 = build_ring("Z12")
    assert is_maximal(span(z12, [2]))
    assert not is_maximal(span(z12, [4]))
    assert not is_maximal(span(z12, [6]))


def test_is_prime_examples():
    z12 = build_ring("Z12")
    assert is_prime(span(z12, [2]))
    assert not is_prime(span(z12, [4]))
    assert not is_prime(span(z12, [6]))


def test_is_semiprime_examples():
    z12 = build_ring("Z12")
    assert is_semiprime(span(z12, [6]))
    assert not is_semiprime(span(z12, [4]))
    assert is_semiprime(span(z12, [2]))


@pytest.mark.parametrize("name", ORACLE_RINGS)
def test_semiprime_square_criterion_matches_all_exponents(name):
    ring = build_ring(name)
    for g in range(ring.size):
        J = span(ring, [g])
        if not J.is_proper():
            continue
        by_square = is_semiprime(J)
        by_exponents = all(
            J.contains(x)
            for x in range(ring.size)
            for k in range(2, 7)
            if J.contains(ring.pow(x, k))
        )
        assert by_square == by_exponents


@pytest.mark.parametrize("name", STRUCTURE_RINGS)
def test_power_walk_matches_naive_units_and_nilpotents(name):
    # the name predates the maximal ideals, from which both bitsets now come
    ring = build_ring(name)
    nilpotents = naive_nilpotents(ring)
    assert ring.unit_bits() == sum(1 << x for x in naive_units(ring))
    assert ring.nilpotent_bits() == sum(1 << x for x in nilpotents)
    assert members(jacobson_radical(ring)) == nilpotents


@pytest.mark.parametrize("name", STRUCTURE_RINGS)
def test_semiprime_matches_squaring_scan(name):
    ring = build_ring(name)
    step = max(1, ring.size // 9)
    pairs = itertools.product(range(0, ring.size, step), repeat=2)
    seen = set()
    for gens in [*([g] for g in range(ring.size)), *map(list, pairs)]:
        J = span(ring, gens)
        if J.bits in seen:
            continue
        seen.add(J.bits)
        assert is_semiprime(J) == naive_is_semiprime(ring, set(J.members())), gens


def test_jacobson_examples():
    assert members(jacobson_radical(build_ring("Z12"))) == {0, 6}
    assert members(jacobson_radical(build_ring("Z8"))) == {0, 2, 4, 6}
    assert members(jacobson_radical(build_ring("Z5"))) == {0}
    assert members(jacobson_radical(build_ring("Z1000"))) == set(range(0, 1000, 10))
    # the nilradical of a local quotient ring: zero constant term (slot 0)
    q = build_ring("Z3[x,y]/(x^3,y^2)")
    radical = members(jacobson_radical(q))
    assert len(radical) == 243
    assert radical == {a for a in q.elements() if q.coordinates(a)[0] == 0}


@pytest.mark.parametrize("name", ORACLE_RINGS)
def test_jacobson_matches_definition(name):
    ring = build_ring(name)
    jac = jacobson_radical(ring)
    for x in range(ring.size):
        elementwise = all(
            ring.is_unit(ring.sub(ring.one, ring.mul(x, r)))
            for r in range(ring.size)
        )
        assert jac.contains(x) == elementwise


def test_maximal_ideals_examples():
    z12 = build_ring("Z12")
    max12 = maximal_ideals(z12)
    assert [members(m) for m in max12] == [
        {0, 2, 4, 6, 8, 10},
        {0, 3, 6, 9},
    ]
    assert [members(m) for m in maximal_ideals(build_ring("Z8"))] == [{0, 2, 4, 6}]
    p = build_ring("Z2xZ2")
    pulled = [ {p.label(x) for x in m.members()} for m in maximal_ideals(p)]
    assert pulled == [{"(0,0)", "(0,1)"}, {"(0,0)", "(1,0)"}]
    # Z4[x]/(x^2) is local, with maximal ideal (2, x): a + bx with a even,
    # and a + bx has index a + 4b
    assert [members(m) for m in maximal_ideals(build_ring("Z4[x]/(x^2)"))] == [
        set(range(0, 16, 2))
    ]


@pytest.mark.parametrize(
    "name, primes",
    [
        ("Z4xZ9xZ25", [(0, 2), (1, 3), (2, 5)]),
        ("Z8xZ3xZ2xZ5", [(0, 2), (1, 3), (2, 2), (3, 5)]),
        ("Z6xZ10", [(0, 2), (0, 3), (1, 2), (1, 5)]),
    ],
)
def test_maximal_ideals_of_products_by_factor_then_prime(name, primes):
    # the ideal for (i, p) holds the tuples whose component i is a multiple of p
    ring = build_ring(name)
    assert [members(m) for m in maximal_ideals(ring)] == [
        {a for a in ring.elements() if ring.decode(a)[i] % p == 0} for i, p in primes
    ]


@pytest.mark.parametrize(
    "name",
    dict.fromkeys(["Z6", "Z12", "Z18", "Z20", "Z36", "Z4xZ9", *NONLOCAL_RINGS,
                   *SPLIT_MODULUS_RINGS]),
)
def test_maximal_ideals_pass_is_maximal_and_radical_intersection(name):
    ring = build_ring(name)
    maxima = maximal_ideals(ring)
    bits = ring.full_bits
    for m in maxima:
        assert is_maximal(m)
        bits &= m.bits
    assert bits == jacobson_radical(ring).bits


@pytest.mark.parametrize("name", ORBIT_RINGS)
def test_maximal_generators_span_every_maximal_ideal(name):
    # each tuple spans a proper ideal with a field quotient (no vertex over
    # it), no two span the same ideal, and by prime avoidance their union
    # being every non-unit means no maximal ideal is missing
    ring = build_ring(name)
    spans = [closure_span(ring, gens) for gens in ring.maximal_generators]
    for gens, members in zip(ring.maximal_generators, spans):
        assert members == set(span(ring, gens).members()), (name, gens)
        assert len(members) < ring.size, (name, gens)
        assert naive_vertices(ring, members, "cozero") == [], (name, gens)
    assert len({frozenset(m) for m in spans}) == len(spans)
    assert set().union(*spans) == set(ring.elements()) - naive_units(ring)


@pytest.mark.parametrize(
    "name, count",
    [
        ("Z6[x]/(x^2)", 2),
        ("Z2[t]/(t^2+t)", 2),
        ("Z4[x]/(x^2)", 1),
        ("Z3[t]/(t^2+1)", 1),
        ("Z6[t]/(t^2+t)", 4),
        # the modulus splits mod p: one maximal ideal per distinct factor
        ("Z3[t]/(t^4+2)", 3),
        ("Z10[t]/(t^2+1)", 3),
        ("Z12[t]/(t^2+t)", 4),
        ("Z2[t]/(t^3+1)", 2),  # t^2+t+1 is irreducible
        ("Z2[t]/(t^4+1)", 1),  # (t+1)^4
        ("Z2[x,t]/(x^2,t^3+1)", 2),
    ],
)
def test_maximal_ideal_count_of_quotient_rings(name, count):
    assert len(build_ring(name).maximal_generators) == count


@st.composite
def small_quotient_rings(draw, cap=256):
    """Z_m[t, x, y]/(f(t), x^a, y^b) of at most ``cap`` elements, 2 <= m <= 12.

    At most one monic modulus f, of degree 1-3, and 0-2 nilpotent variables.
    """
    m = draw(st.integers(2, min(12, cap)))
    slots = max(k for k in range(1, 9) if m**k <= cap)  # monomials that fit
    degree = draw(st.integers(0, min(3, slots)))  # 0: no modulus
    used = max(degree, 1)
    exponents = []
    for _ in range(draw(st.integers(0 if degree else 1, 2))):
        exponents.append(draw(st.integers(1, slots // used)))
        used *= exponents[-1]
    if not degree:
        return build_ring(PolyQuotientRing(m, ("x", "y")[: len(exponents)], tuple(exponents)))
    tail = tuple(draw(st.integers(0, m - 1)) for _ in range(degree))
    variables = ("t", "x", "y")[: 1 + len(exponents)]
    return build_ring(PolyQuotientRing(m, variables, (degree, *exponents), 0, (*tail, 1)))


@given(ring=small_quotient_rings(), data=st.data())
def test_quotient_structure_matches_referees(ring, data):
    # units, radical, vertex sets and maximality all come from the maximal
    # ideals read off the descriptor; each is checked against a referee
    assert ring.size <= 256
    assert ring.unit_bits() == sum(1 << x for x in naive_units(ring))
    assert ring.nilpotent_bits() == sum(1 << x for x in naive_nilpotents(ring))
    g = data.draw(st.integers(0, ring.size - 1))
    maxima = [span(ring, gens) for gens in ring.maximal_generators]
    for J in [zero_ideal(ring), span(ring, [g]), *maxima]:
        j_members = set(J.members())
        verts = naive_vertices(ring, j_members, "cozero")
        assert list(vertex_set(ring, J)) == verts
        assert is_maximal(J) == (len(j_members) < ring.size and not verts)
    assert all(is_maximal(m) for m in maxima)


@pytest.mark.parametrize("name", QUOTIENT_RINGS)
def test_monomial_multiples_are_the_products_with_each_monomial(name):
    # carrier index m^k is the k-th monomial
    ring = build_ring(name)
    for v in ring.elements():
        want = [ring.mul(ring.m**k, v) for k in range(len(ring.monomials))]
        assert ring._monomial_multiples(v) == want, ring.label(v)


# every quotient ring the ring and graph tests name, and one of 4,096 elements
SPAN_RINGS = sorted({
    *QUOTIENT_RINGS,
    *(name for name in ORBIT_RINGS + SPLIT_MODULUS_RINGS if "[" in name),
    "Z2[x,t]/(x^6,t^2+t)",
})


@pytest.mark.parametrize("name", SPAN_RINGS)
def test_span_bits_matches_the_member_walk(name):
    # one and two generators, over 0, each maximal ideal and a principal J;
    # at most 32 generators a ring, spread over the carrier
    ring = build_ring(name)
    xs = range(0, ring.size, -(-ring.size // 32))
    bases = [1, *ring.maximal_bits, member_walk_span(ring, (xs[len(xs) // 2],), 1)]
    for base in bases:
        for x, y in zip(xs, reversed(xs)):
            for values in [(x,), (x, y)]:
                want = member_walk_span(ring, values, base)
                assert ring.span_bits(values, base) == want, (values, base)


@given(ring=small_quotient_rings(), data=st.data())
def test_span_bits_matches_the_member_walk_on_random_rings(ring, data):
    idx = st.integers(0, ring.size - 1)
    values = tuple(data.draw(st.lists(idx, min_size=1, max_size=3)))
    base = data.draw(st.sampled_from([1, member_walk_span(ring, (data.draw(idx),), 1)]))
    assert ring.span_bits(values, base) == member_walk_span(ring, values, base)


@given(
    ring=st.one_of(
        small_quotient_rings(cap=64),
        st.tuples(small_quotient_rings(cap=8), small_quotient_rings(cap=8)).map(
            lambda pair: build_ring(ProductRing(tuple(r.descriptor for r in pair)))
        ),
    ),
    data=st.data(),
)
def test_random_ring_levels_match_naive_edges(ring, data):
    # every level up to one past the bound, in both kinds, against the
    # pairwise referee, on random quotient rings and products of two of them;
    # the context's completeness and edgelessness on classes, and the sharp
    # index, the least level whose edges are already the last level's, are
    # checked against the same edge sets
    g = data.draw(st.integers(0, ring.size - 1))
    J = data.draw(st.sampled_from([zero_ideal(ring), span(ring, [g])]))
    j_members = set(J.members())
    ctx, bound = level_context(ring, J), stabilization_bound(ring, J)
    pairs = len(vertex_set(ring, J)) * (len(vertex_set(ring, J)) - 1) // 2
    for kind in (COZERO, ZERO):
        levels = []
        for i in range(1, bound + 2):
            want = naive_edges(ring, j_members, i, kind)
            where = (ring.descriptor, J.bits, kind, i)
            assert set(build_level(ring, J, i, kind).edges()) == want, where
            assert ctx.is_complete(i, kind) == (len(want) == pairs), where
            assert ctx.is_edgeless(i, kind) == (not want), where
            levels.append(want)
        sharp = levels.index(levels[-1]) + 1
        assert minimal_stabilization_index(ring, J, kind) == sharp <= bound, (ring.descriptor, kind)


@pytest.mark.parametrize("name", ORACLE_RINGS)
def test_prime_iff_maximal_on_finite_rings(name):
    ring = build_ring(name)
    assert ring.size <= 256
    seen = set()
    for g in range(ring.size):
        J = span(ring, [g])
        if J.bits in seen:
            continue
        seen.add(J.bits)
        assert is_prime(J) == is_maximal(J) == naive_is_prime(ring, set(J.members()))


def test_prime_implies_semiprime():
    for name in ORACLE_RINGS:
        ring = build_ring(name)
        for g in range(ring.size):
            J = span(ring, [g])
            if is_prime(J):
                assert is_semiprime(J)


def test_span_from_labels():
    z12 = build_ring("Z12")
    assert members(span_from_labels(z12, "0")) == {0}
    assert members(span_from_labels(z12, "6,4")) == {0, 2, 4, 6, 8, 10}
    p = build_ring("Z2xZ2")
    assert members(span_from_labels(p, "(0,1)")) == {0, 1}


@pytest.mark.parametrize("name", ORACLE_RINGS)
def test_generator_labels_are_the_greedy_generators(name):
    # spelled by the last generators in carrier order, so a name kept from
    # the first span would differ from the one derived from the bits
    ring = build_ring(name)
    principal = [[g] for g in reversed(range(ring.size))]
    step = max(1, ring.size // 5)
    pairs = itertools.combinations(range(ring.size - 1, 0, -step), 2)
    seen = set()
    for gens in [*principal, *map(list, pairs)]:
        ideal = span(ring, gens)
        if ideal.bits in seen:
            continue
        seen.add(ideal.bits)
        labels = ideal.generator_labels()
        assert span_from_labels(ring, ",".join(labels) or "0") is ideal
        picked = []
        for label in labels:
            before = closure_span(ring, picked)
            assert ring.parse_label(label) == min(set(ideal.members()) - before)
            picked.append(ring.parse_label(label))


def test_product_ideal_sum_interns_nothing_in_factors():
    ring = build_ring("Z49xZ11")
    before = [len(f.ideal_intern) for f in ring.factor_rings]
    J = span(ring, [ring.parse_label("(7,0)")])
    I = ideal_sum(J, (ring.parse_label("(0,1)"),))
    assert {ring.label(x) for x in I.members()} == {
        f"({7 * a},{b})" for a in range(7) for b in range(11)
    }
    assert [len(f.ideal_intern) for f in ring.factor_rings] == before


def test_ideal_sum_absorbs_members():
    z12 = build_ring("Z12")
    J = span(z12, [4])
    assert ideal_sum(J, (8,)) is J
    assert ideal_sum(J, ()) is J
