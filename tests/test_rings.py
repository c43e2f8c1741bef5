"""Ring kernel: descriptors, arithmetic, units, power sequences."""

import itertools
import signal

import pytest
from hypothesis import given, strategies as st

from oracles import digit_add, digit_neg, naive_monic_factors, poly_mul, power_rho
from ringgraphs.claims import GRID_RINGS
from ringgraphs.rings import (
    CarrierTooLarge,
    ModularRing,
    NonMonicModulus,
    ParseError,
    PolyQuotientRing,
    ZeroModulus,
    _QuotientRingOps,
    build_ring,
    descriptor_string,
    monic_irreducible_factors,
    parse_elements,
    parse_ring,
    poly_string,
)
from test_graphs import ORBIT_RINGS, SPLIT_MODULUS_RINGS

SMALL_RINGS = ["Z6", "Z12", "Z2xZ3", "Z2xZ2", "Z4[x]/(x^2)", "Z3[t]/(t^2+1)"]
MEDIUM_RINGS = SMALL_RINGS + ["Z24", "Z2[x,y]/(x^3,y^2)", "Z4xZ9"]
# non-local quotient rings, a modulus rewrite, and a three-factor product
UNIT_SCAN_RINGS = ["Z6[x]/(x^2)", "Z2[t]/(t^2+t)", "Z4[t]/(t^3+t+1)", "Z4xZ9xZ25"]

# every quotient ring of at most 128 elements that the tests, the grid or the
# stabilize-poly benchmark pools build; the modulus rewrites are the cases
# that treating the modulus variable as nilpotent would get wrong
QUOTIENT_RINGS = sorted({
    *(name for name in GRID_RINGS if "[" in name),
    "Z2[x]/(x^2)", "Z2[y]/(y^2)", "Z3[x]/(x^2)", "Z4[x]/(x^2)",
    "Z2[x,y]/(x^2,y^2)", "Z2[t,y]/(t^2,y^2)", "Z2[x,y]/(x^3,y^2)", "Z2[x,y]/(x^2,y^3)",
    "Z6[x]/(x^2)", "Z2[t]/(t^2+t)", "Z3[t]/(t^2+1)", "Z4[t]/(t^2+t+1)",
    "Z2[x,y]/(x^3+x,y^2)",
    "Z2[x]/(x^7)", "Z2[t]/(t^7)", "Z5[x]/(x^3)", "Z5[u]/(u^3)", "Z9[x]/(x^2)", "Z9[t]/(t^2)",
    "Z3[x,y]/(x^2,y^2)", "Z3[y,x]/(y^2,x^2)",
    "Z4[t]/(t^3+t+1)", "Z4[t]/(t^3+t^2+1)", "Z4[t]/(t^3+2*t^2+t+1)",
    "Z2[x,y]/(x^2,y^3+y+1)", "Z2[x,y]/(x^2,y^3+y^2+1)", "Z2[x,y]/(x^3+x+1,y^2)",
})


def test_carrier_sizes():
    assert build_ring("Z12").size == 12
    assert build_ring("Z2[x,y]/(x^3,y^2)").size == 64
    assert build_ring("Z4xZ9").size == 36


@pytest.mark.parametrize(
    "text",
    ["Z12", "Z4xZ9", "Z2[x,y]/(x^3,y^2)", "Z3[t]/(t^2+1)", "Z2xZ3xZ5", "Z4[x]/(x^2)"],
)
def test_descriptor_round_trip(text):
    desc = parse_ring(text)
    assert parse_ring(descriptor_string(desc)) == desc


def test_descriptor_case_insensitive():
    assert parse_ring("z12") == parse_ring("Z12")
    assert parse_ring("Z2[X,Y]/(X^3,Y^2)") == parse_ring("z2[x,y]/(x^3,y^2)")


def test_descriptor_errors():
    with pytest.raises(ZeroModulus):
        parse_ring("Z1")
    with pytest.raises(ZeroModulus):
        parse_ring("Z0")
    with pytest.raises(CarrierTooLarge):
        parse_ring("Z65537")
    with pytest.raises(CarrierTooLarge):
        parse_ring("Z2[x,y]/(x^9,y^9)")
    # the modulus degree is checked before its coefficient list is allocated
    with pytest.raises(CarrierTooLarge):
        parse_ring("Z2[t]/(t^17+1)")
    with pytest.raises(CarrierTooLarge):
        parse_ring("Z2[t]/(t^1000000000000000+1)")
    assert parse_ring("Z2[t]/(t^16+1)").exponents == (16,)
    with pytest.raises(NonMonicModulus):
        parse_ring("Z4[t]/(2*t^2+1)")
    with pytest.raises(ParseError):
        parse_ring("Z4[t]/(t^2,t^3)")
    with pytest.raises(ParseError):
        parse_ring("badness")
    with pytest.raises(ParseError):
        parse_ring("Z4[t]/(s^2)")
    # a sign with no term after it, and an empty item in an element list
    with pytest.raises(ParseError):
        parse_ring("Z2[t]/(t^2+t+)")
    ring = build_ring("Z5[x]/(x^3)")
    for text in ("x+", "x++1", "x-", "+", "++x"):
        with pytest.raises(ParseError):
            ring.parse_label(text)
    for text in ("x,,2", "x,", ",x", " , "):
        with pytest.raises(ParseError):
            parse_elements(ring, text)
    x = ring.parse_label("x")
    assert ring.parse_label("-x") == ring.neg(x)
    assert ring.parse_label("+x") == x
    assert ring.parse_label("x-1") == ring.parse_label("x+-1") == ring.sub(x, ring.one)
    assert parse_elements(ring, "") == parse_elements(ring, "0") == ()


def test_pow_examples():
    z12 = build_ring("Z12")
    assert z12.pow(6, 2) == 0
    assert z12.pow(10, 2) == 4
    q = build_ring("Z2[x,y]/(x^3,y^2)")
    assert q.pow(q.parse_label("x"), 3) == q.zero


def test_is_unit_examples():
    z12 = build_ring("Z12")
    assert z12.is_unit(5)
    assert not z12.is_unit(2)
    p = build_ring("Z2xZ3")
    assert p.is_unit(p.parse_label("(1,2)"))


def test_element_zero_and_one():
    for name in MEDIUM_RINGS:
        ring = build_ring(name)
        assert ring.zero == 0
        assert ring.one != ring.zero
        assert ring.mul(ring.one, ring.one) == ring.one


def test_label_round_trip():
    for name in MEDIUM_RINGS:
        ring = build_ring(name)
        for x in ring.elements():
            assert ring.parse_label(ring.label(x)) == x


@pytest.mark.parametrize("name", [
    name
    for name in dict.fromkeys(ORBIT_RINGS + SPLIT_MODULUS_RINGS + ["Z4[t]/(t^3+t+1)"])
    if "[" in name
])
def test_quotient_label_table_matches_poly_string(name):
    ring = build_ring(name)
    for x in ring.elements():
        terms = dict(zip(ring.monomials, ring.decode_digits(x)))
        assert ring.label(x) == poly_string(ring.variables, terms)


def test_coordinates_bijection():
    for name in SMALL_RINGS:
        ring = build_ring(name)
        coords = [ring.coordinates(x) for x in ring.elements()]
        assert len(set(coords)) == ring.size


@pytest.mark.parametrize("name", SMALL_RINGS)
def test_ring_axioms_exhaustive(name):
    ring = build_ring(name)
    elems = range(ring.size)
    for a, b in itertools.product(elems, repeat=2):
        assert ring.add(a, b) == ring.add(b, a)
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.add(a, ring.neg(a)) == ring.zero
        assert ring.mul(a, ring.one) == a
        assert ring.add(a, ring.zero) == a
    # strided triples keep the distributivity scan affordable
    stride = max(1, ring.size // 8)
    for a in elems:
        for b in range(0, ring.size, stride):
            for c in range(0, ring.size, stride):
                assert ring.mul(a, ring.add(b, c)) == ring.add(
                    ring.mul(a, b), ring.mul(a, c)
                )
                assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
                assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))


@given(
    name=st.sampled_from(MEDIUM_RINGS),
    data=st.data(),
)
def test_ring_axioms_sampled(name, data):
    ring = build_ring(name)
    idx = st.integers(min_value=0, max_value=ring.size - 1)
    a, b, c = data.draw(idx), data.draw(idx), data.draw(idx)
    assert ring.add(a, b) == ring.add(b, a)
    assert ring.mul(a, b) == ring.mul(b, a)
    assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
    assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))


@pytest.mark.parametrize("name", SMALL_RINGS)
def test_pow_consistency(name):
    ring = build_ring(name)
    for x in ring.elements():
        for m in range(1, 11):
            assert ring.pow(x, m + 1) == ring.mul(ring.pow(x, m), x)


@pytest.mark.parametrize("name", QUOTIENT_RINGS)
def test_quotient_mul_matches_polynomial_reference(name):
    ring = build_ring(name)
    assert ring.size <= 128
    for a, b in itertools.product(range(ring.size), repeat=2):
        assert ring.mul(a, b) == poly_mul(ring, a, b), (ring.label(a), ring.label(b))


def test_parse_label_reduces_high_powers():
    # t^3 = 1 in this field of four elements, so t^200 = t^2
    ring = build_ring("Z2[t]/(t^2+t+1)")
    assert ring.parse_label("t^200") == ring.parse_label("t^2")


def _parse_within_5s(ring, text):
    """``ring.parse_label(text)``, failing instead of hanging past 5 s."""

    def too_slow(*_):
        raise TimeoutError(f"parsing {text!r} took over 5 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        return ring.parse_label(text)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_parse_label_takes_huge_powers_in_log_time():
    # reducing t^e by the modulus one degree at a time would take e steps
    e = 10**18
    field = build_ring("Z2[t]/(t^2+t+1)")
    assert _parse_within_5s(field, f"t^{e}") == field.pow(field.parse_label("t"), e)
    ring = build_ring("Z2[x,t]/(x^2,t^3+1)")
    x, t = ring.parse_label("x"), ring.parse_label("t")
    expected = ring.add(ring.add(ring.mul(x, ring.pow(t, e)), ring.pow(t, e + 1)), ring.one)
    assert _parse_within_5s(ring, f"x*t^{e}+t^{e + 1}+1") == expected


@pytest.mark.parametrize(
    "name", [n for n in QUOTIENT_RINGS if parse_ring(n).modulus_var is not None]
)
def test_parse_label_matches_pow_on_high_powers(name):
    ring = build_ring(name)
    gens = {v: ring.parse_label(v) for v in ring.variables}
    for v, x in gens.items():
        for e in (*range(1, 13), 40, 97, 200):
            assert ring.parse_label(f"{v}^{e}") == ring.pow(x, e), (v, e)
    # two high powers reduce term by term, and their reductions add
    *_, (v, x) = gens.items()
    assert ring.parse_label(f"{v}^60+{v}^63") == ring.add(ring.pow(x, 60), ring.pow(x, 63))


# quotient add works on packed fields of w = (2m - 2).bit_length() bits plus
# a flag bit; Z7 and Z8 have w = 4, and m = 8's largest digit sum, 14, uses
# every bit below the flag; Z_n and product add get the same check
ADD_RINGS = sorted({*QUOTIENT_RINGS, "Z7[x]/(x^2)", "Z8[x]/(x^2)", *SMALL_RINGS})
# the two 65,536-element cap rings and the 729-element trajectory ring
CAP_RINGS = ["Z2[x]/(x^16)", "Z4[x,y]/(x^4,y^2)", "Z3[x,y]/(x^3,y^2)"]


@pytest.mark.parametrize("name", ADD_RINGS)
def test_add_neg_sub_match_digit_reference(name):
    ring = build_ring(name)
    assert ring.size <= 128
    for a in range(ring.size):
        assert ring.neg(a) == digit_neg(ring, a)
        for b in range(ring.size):
            assert ring.add(a, b) == digit_add(ring, a, b), (ring.label(a), ring.label(b))
            assert ring.sub(a, b) == digit_add(ring, a, digit_neg(ring, b))


@given(name=st.sampled_from(CAP_RINGS), data=st.data())
def test_add_neg_sub_sampled_on_cap_rings(name, data):
    ring = build_ring(name)
    idx = st.integers(min_value=0, max_value=ring.size - 1)
    a, b = data.draw(idx), data.draw(idx)
    assert ring.add(a, b) == digit_add(ring, a, b)
    assert ring.neg(a) == digit_neg(ring, a)
    assert ring.sub(a, b) == digit_add(ring, a, digit_neg(ring, b))


def test_quotient_add_tables_are_built_on_first_add():
    # a fresh ring: build_ring may hand back one that has already added
    ring = _QuotientRingOps(parse_ring("Z2[x]/(x^16)"))
    assert "_packed" not in vars(ring) and "_index" not in vars(ring)
    assert ring.add(ring.one, ring.one) == ring.zero
    assert len(vars(ring)["_index"]) == ring.size == 65536


@pytest.mark.parametrize("name", MEDIUM_RINGS + UNIT_SCAN_RINGS)
def test_unit_scan_matches_definition(name):
    ring = build_ring(name)
    assert ring.size <= 900
    for x in ring.elements():
        reachable = {ring.mul(x, r) for r in ring.elements()}
        assert ring.is_unit(x) == (ring.one in reachable)


@pytest.mark.parametrize("name", MEDIUM_RINGS)
def test_power_sequence_eventually_periodic(name):
    ring = build_ring(name)
    for x in ring.elements():
        t, p = power_rho(ring, x)
        assert 1 <= p and 0 <= t
        assert t + p <= ring.size
        for m in range(t + 1, t + p + 1):
            assert ring.pow(x, m) == ring.pow(x, m + p)


# every product ring of the grid and of the oracle ring lists, plus three- and
# four-factor products; test_ideals checks their units and nilpotents
PRODUCT_RINGS = ["Z4xZ9", "Z2xZ2", "Z2xZ3", "Z2xZ3xZ5", "Z4xZ9xZ25", "Z2xZ4", "Z8xZ3xZ2xZ5"]


@pytest.mark.parametrize("p", [2, 3])
def test_monic_factors_match_brute_force(p):
    # every monic polynomial of degree <= 4 over F_p: the maximal ideals of a
    # quotient ring with a modulus come from these factors
    for degree in range(1, 5):
        for tail in itertools.product(range(p), repeat=degree):
            f = (*tail, 1)
            factors = monic_irreducible_factors(f, p)
            assert len(set(factors)) == len(factors), f
            assert set(factors) == naive_monic_factors(f, p), f


def test_modular_unit_scan_large():
    ring = build_ring("Z625")
    units = sum(1 for x in ring.elements() if ring.is_unit(x))
    assert units == 500  # euler phi of 5^4


def test_quotient_with_modulus_is_field():
    f9 = build_ring("Z3[t]/(t^2+1)")
    assert all(f9.is_unit(x) for x in range(1, f9.size) if x != 0)


def test_product_descriptor_objects():
    desc = parse_ring("Z4xZ9")
    assert isinstance(desc.factors[0], ModularRing)
    poly = parse_ring("Z2[x,y]/(x^3,y^2)")
    assert isinstance(poly, PolyQuotientRing)
    assert poly.exponents == (3, 2)
