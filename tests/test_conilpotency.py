"""Conilpotent elements, their least exponents, and the ring index."""

import pytest

from oracles import brute_conilpotency_index, coset_set, power_rho, scan_conilpotency_maximum
from ringgraphs.claims import GRID_RINGS, _stable_power, default_grid
from ringgraphs.conilpotency import (
    conilpotency_maximum,
    conilpotency_record,
    ring_conilpotency_index,
)
from ringgraphs.graphs import build_level, power_trajectory, stabilization_bound, vertex_set
from ringgraphs.ideals import jacobson_radical, span, span_from_labels, zero_ideal
from ringgraphs.rings import build_ring
from test_graphs import NONLOCAL_RINGS, SPLIT_MODULUS_RINGS


def test_record_examples():
    z6 = build_ring("Z6")
    J = zero_ideal(z6)
    rec3 = conilpotency_record(z6, J, 3)
    assert rec3.is_conilpotent and rec3.index == 1
    rec2 = conilpotency_record(z6, J, 2)
    assert not rec2.is_conilpotent and rec2.index is None
    z5 = build_ring("Z5")
    assert not conilpotency_record(z5, zero_ideal(z5), 0).is_conilpotent


def test_ring_index_examples():
    z6 = build_ring("Z6")
    assert ring_conilpotency_index(z6, zero_ideal(z6)) == 1
    conil = [
        x
        for x in z6.elements()
        if conilpotency_record(z6, zero_ideal(z6), x).is_conilpotent
    ]
    assert conil == [3, 4]
    z5 = build_ring("Z5")
    assert ring_conilpotency_index(z5, zero_ideal(z5)) is None
    # pinned regression value, frozen from the brute-force oracle
    z4 = build_ring("Z4")
    assert ring_conilpotency_index(z4, zero_ideal(z4)) is None


BRUTE_CASES = ["Z4", "Z5", "Z6", "Z8", "Z9", "Z12", "Z18", "Z2xZ2", "Z4[x]/(x^2)"]


@pytest.mark.parametrize("name", BRUTE_CASES)
def test_matches_brute_force_zero_ideal(name):
    ring = build_ring(name)
    J = zero_ideal(ring)
    assert ring_conilpotency_index(ring, J) == brute_conilpotency_index(
        ring, set(J.members())
    )


NONZERO_IDEAL_CASES = [
    ("Z12", "6"), ("Z12", "4"), ("Z4[x]/(x^2)", "2"), ("Z6[x]/(x^2)", "3"), ("Z6[x]/(x^2)", "x")
]


def test_matches_brute_force_nonzero_ideal():
    for name, label in NONZERO_IDEAL_CASES:
        ring = build_ring(name)
        J = span_from_labels(ring, label)
        assert ring_conilpotency_index(ring, J) == brute_conilpotency_index(
            ring, set(J.members())
        )


@pytest.mark.parametrize(
    "name, label", [(name, "0") for name in BRUTE_CASES] + NONZERO_IDEAL_CASES
)
def test_maximum_reads_the_index_and_its_first_element_from_one_scan(name, label):
    ring = build_ring(name)
    J = span_from_labels(ring, label)
    xi, x = conilpotency_maximum(ring, J)
    assert xi == ring_conilpotency_index(ring, J) == brute_conilpotency_index(
        ring, set(J.members())
    )
    indices = [conilpotency_record(ring, J, y).index for y in ring.elements()]
    assert x == (None if xi is None else indices.index(xi))


def test_maximum_matches_the_full_scan_on_the_default_grid():
    pairs = dict.fromkeys((inst.ring, inst.ideal) for inst in default_grid())
    assert len(pairs) == 56
    for name, label in pairs:
        ring = build_ring(name)
        J = span_from_labels(ring, label)
        assert conilpotency_maximum(ring, J) == scan_conilpotency_maximum(ring, J), (name, label)


@pytest.mark.parametrize("name", NONLOCAL_RINGS + SPLIT_MODULUS_RINGS)
def test_maximum_matches_the_full_scan_on_every_principal_ideal(name):
    ring = build_ring(name)
    seen = set()
    for g in ring.elements():
        J = span(ring, (g,))
        if J.bits in seen:
            continue
        seen.add(J.bits)
        assert conilpotency_maximum(ring, J) == scan_conilpotency_maximum(ring, J), ring.label(g)


@pytest.mark.parametrize("name", BRUTE_CASES)
def test_search_bound_is_sound(name):
    # scanning far past the trajectory bound finds no new witnesses and the
    # same minimal exponent
    ring = build_ring(name)
    J = zero_ideal(ring)
    j_members = set(J.members())
    for x in ring.elements():
        rec = conilpotency_record(ring, J, x)
        assert rec.search_bound == len(power_trajectory(ring, J, x).ideals)
        one_minus = ring.sub(ring.one, x)
        complement = coset_set(ring, j_members, one_minus)
        found = None
        for k in range(1, 2 * rec.search_bound + 4):
            xk = ring.pow(x, k)
            if one_minus not in coset_set(ring, j_members, xk) and xk not in complement:
                found = k
                break
        assert found == rec.index


def test_stable_power_conilpotency_property():
    # J inside the radical, x a non-unit outside it with a stable power:
    # x must be conilpotent with a witness at that exponent
    for name in ("Z6", "Z12", "Z24", "Z2xZ2", "Z36"):
        ring = build_ring(name)
        jac = jacobson_radical(ring)
        for J in (zero_ideal(ring), jac):
            if not J.is_proper():
                continue
            for x in ring.elements():
                if ring.is_unit(x) or jac.contains(x):
                    continue
                t, p = power_rho(ring, x)
                stable = [
                    n
                    for n in range(1, t + p + 1)
                    if ring.pow(x, n) == ring.pow(x, n + 1)
                ]
                if stable:
                    rec = conilpotency_record(ring, J, x)
                    assert rec.is_conilpotent
                    assert rec.index <= min(stable)


def test_vertex_membership_properties():
    # stable vertex power forces 1-x in; with J inside the radical,
    # 1-x a vertex forces every power in
    for name in ("Z6", "Z12", "Z24", "Z2xZ2"):
        ring = build_ring(name)
        J = zero_ideal(ring)
        vset = set(vertex_set(ring, J))
        for x in ring.elements():
            t, p = power_rho(ring, x)
            for n in range(1, t + p + 1):
                if ring.pow(x, n) == ring.pow(x, n + 1) and ring.pow(x, n) in vset:
                    assert ring.sub(ring.one, x) in vset
            if not ring.is_unit(x) and ring.sub(ring.one, x) in vset:
                for n in range(1, t + p + 1):
                    assert ring.pow(x, n) in vset


def test_stable_power_adjacent_to_complement_at_level_one():
    for name in ("Z6", "Z12", "Z24", "Z36", "Z2xZ2"):
        ring = build_ring(name)
        J = zero_ideal(ring)
        jac = jacobson_radical(ring)
        g1 = build_level(ring, J, 1)
        vset = set(g1.vertices)
        for x in ring.elements():
            if ring.is_unit(x) or jac.contains(x):
                continue
            t, p = power_rho(ring, x)
            for n in range(1, t + p + 1):
                if ring.pow(x, n) != ring.pow(x, n + 1):
                    continue
                u, v = ring.pow(x, n), ring.sub(ring.one, x)
                assert u != v and u in vset and v in vset
                assert g1.has_edge(u, v)


def test_even_index_excluded_when_levels_coincide():
    from ringgraphs.analysis import graph_equals

    for name in ("Z6", "Z8", "Z9", "Z2xZ2", "Z36"):
        ring = build_ring(name)
        J = zero_ideal(ring)
        if not graph_equals(build_level(ring, J, 1), build_level(ring, J, 2)):
            continue
        xi = ring_conilpotency_index(ring, J)
        assert xi is None or xi % 2 == 1


@pytest.mark.parametrize("name", GRID_RINGS + ["Z30", "Z49", "Z2xZ4", "Z3[x]/(x^2)"])
def test_bounded_stable_power_search_matches_rho_formula(name):
    # x, ..., x^{t+p} are distinct and x^{t+p+1} = x^{t+1}, so x^n = x^{n+1}
    # holds first at n = t + 1, and only when the period p is 1
    ring = build_ring(name)
    for x in ring.elements():
        t, p = power_rho(ring, x)
        assert _stable_power(ring, x) == ((t + 1, ring.pow(x, t + 1)) if p == 1 else None), x
