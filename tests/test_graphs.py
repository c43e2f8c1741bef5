"""Graph builder: vertex sets, adjacency, levels, trajectories, stabilization."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from oracles import (
    closure_span,
    coset_set,
    digit_add,
    naive_adjacent,
    naive_edges,
    naive_units,
    naive_vertices,
    power_rho,
    zn_cozero_rows,
)
from test_acceptance import ORACLE_RINGS
from ringgraphs import clear_caches, graphs
from ringgraphs.graphs import (
    COZERO,
    EXTENDED,
    ZERO,
    LevelContext,
    NotAVertex,
    adjacent,
    build_level,
    minimal_stabilization_index,
    power_trajectory,
    stabilization_bound,
    vertex_set,
)
from ringgraphs.claims import GRID_RINGS, grid_ideals
from ringgraphs.ideals import (
    ideal_sum,
    is_maximal,
    jacobson_radical,
    maximal_ideals,
    principal_plus,
    span,
    span_from_labels,
    unit_ideal,
    zero_ideal,
)
from ringgraphs.rings import build_ring

Z12_LEVEL1_EDGES = {
    (2, 3), (2, 9), (3, 4), (3, 8), (3, 10),
    (4, 6), (4, 9), (6, 8), (8, 9), (9, 10),
}
Z12_LEVEL2_EDGES = Z12_LEVEL1_EDGES | {(2, 6), (6, 10)}


def zero_of(name):
    ring = build_ring(name)
    return ring, zero_ideal(ring)


def test_vertex_set_examples():
    z12, J = zero_of("Z12")
    assert vertex_set(z12, J) == (2, 3, 4, 6, 8, 9, 10)
    z6, J6 = zero_of("Z6")
    assert vertex_set(z6, J6) == (2, 3, 4)
    assert vertex_set(z12, span(z12, [2])) == ()


def test_vertex_set_zero_kind():
    z6, J6 = zero_of("Z6")
    assert vertex_set(z6, J6, ZERO) == (2, 3, 4)
    z12 = build_ring("Z12")
    jac = span(z12, [6])
    assert vertex_set(z12, jac, ZERO) == (2, 3, 4, 8, 9, 10)


def test_adjacent_examples():
    z12, J = zero_of("Z12")
    assert not adjacent(z12, J, 2, 6, 1)
    assert adjacent(z12, J, 2, 6, 2)
    q, Jq = zero_of("Z2[x,y]/(x^3,y^2)")
    x, xy = q.parse_label("x"), q.parse_label("x*y")
    assert not adjacent(q, Jq, x, xy, 1)
    assert adjacent(q, Jq, x, xy, 2)
    assert not adjacent(z12, J, 2, 3, 1, ZERO)
    assert adjacent(z12, J, 2, 3, 2, ZERO)


def test_adjacent_rejects_non_vertices():
    z12, J = zero_of("Z12")
    with pytest.raises(NotAVertex):
        adjacent(z12, J, 1, 2, 1)
    with pytest.raises(NotAVertex):
        adjacent(z12, J, 2, 0, 1)


def test_build_level_z12_figures():
    z12, J = zero_of("Z12")
    g1 = build_level(z12, J, 1)
    assert set(g1.edges()) == Z12_LEVEL1_EDGES
    g2 = build_level(z12, J, 2)
    assert set(g2.edges()) == Z12_LEVEL2_EDGES
    assert g2.edge_count == 12


def test_build_level_single_vertex():
    z4, J = zero_of("Z4")
    g = build_level(z4, J, 5)
    assert g.vertices == (2,)
    assert g.edge_count == 0


def test_power_trajectory_examples():
    z12, J = zero_of("Z12")
    t10 = power_trajectory(z12, J, 10)
    assert len(t10.ideals) == 2
    assert t10.ideal_at(1) is span(z12, [10])
    assert set(t10.ideal_at(2).members()) == {0, 4, 8}
    assert t10.ideal_at(2) is t10.ideal_at(3) is t10.ideal_at(9)
    t6 = power_trajectory(z12, J, 6)
    assert len(t6.ideals) == 2
    z8, J8 = zero_of("Z8")
    t2 = power_trajectory(z8, J8, 2)
    assert len(t2.ideals) == 3


def test_stabilization_bound_examples():
    z12, J = zero_of("Z12")
    assert stabilization_bound(z12, J) == 2
    z4, J4 = zero_of("Z4")
    assert stabilization_bound(z4, J4) == 2
    g_bound = build_level(z12, J, 2)
    g_ext = build_level(z12, J, EXTENDED)
    assert set(g_ext.edges()) == set(g_bound.edges())
    assert g_ext.requested_extended


def test_minimal_stabilization_index_examples():
    z12, J = zero_of("Z12")
    assert minimal_stabilization_index(z12, J) == 2
    z24, J24 = zero_of("Z24")
    assert minimal_stabilization_index(z24, J24) == 3
    for name in ("Z8", "Z9", "Z27"):
        ring, J0 = zero_of(name)
        assert minimal_stabilization_index(ring, J0) == 1


def test_minimal_stabilization_index_caches_only_the_bound():
    # the lower levels are compared with the limit as they are made, not kept
    ring, J = zero_of("Z2[x,y]/(x^3,y^2)")
    ctx = graphs.level_context(ring, J)
    bound = stabilization_bound(ring, J)
    for kind, sharp in ((COZERO, 2), (ZERO, 3)):
        ctx._graphs.clear()
        assert minimal_stabilization_index(ring, J, kind) == sharp < bound
        assert list(ctx._graphs) == [(bound, kind)]


def test_stabilization_indices_match_naive_edge_referee():
    # a strict chain of ideals at least halves at each step, so level
    # |R|.bit_length() is past every chain and gives the limit's edges
    for name in ORACLE_RINGS:
        ring = build_ring(name)
        top = ring.size.bit_length()
        for J in {I.bits: I for I in (zero_ideal(ring), jacobson_radical(ring))}.values():
            j_members = set(J.members())
            bound = stabilization_bound(ring, J)
            for kind in (COZERO, ZERO):
                limit = naive_edges(ring, j_members, top, kind)
                sharp = next(
                    i for i in range(1, top) if naive_edges(ring, j_members, i, kind) == limit
                )
                case = (name, J.bits, kind)
                assert minimal_stabilization_index(ring, J, kind) == sharp, case
                assert sharp <= bound < top, case
                assert naive_edges(ring, j_members, bound, kind) == limit, case


def test_level_one_matches_plain_membership_rule():
    for name in ("Z6", "Z12", "Z24", "Z2xZ2"):
        ring, J = zero_of(name)
        g1 = build_level(ring, J, 1)
        for x, y in itertools.combinations(g1.vertices, 2):
            plain = (
                x not in set(span(ring, [y]).members())
                and y not in set(span(ring, [x]).members())
            )
            assert g1.has_edge(x, y) == plain


def test_build_level_rows_match_pairwise_rule():
    # build_level expands rows from twin classes; here every vertex pair is
    # decided by the definition over principal_plus, with no trajectories or
    # classes: cozero asks for incomparable ideals, zero for both powers
    # outside J with their product inside
    for name in GRID_RINGS:
        ring = build_ring(name)
        for label in grid_ideals(name):
            J = span_from_labels(ring, label)
            levels = sorted({1, 2, 3, 4, 5, stabilization_bound(ring, J)})
            exps = range(levels[-1])
            verts = vertex_set(ring, J)
            powers = [[ring.pow(x, m + 1) for m in exps] for x in verts]
            ideals = [[principal_plus(x, m + 1, J) for m in exps] for x in verts]

            def cozero(a, b, m, n):
                return not ideals[a][m].comparable(ideals[b][n])

            def zero(a, b, m, n):
                xm, yn = powers[a][m], powers[b][n]
                return (
                    not J.contains(xm)
                    and not J.contains(yn)
                    and J.contains(ring.mul(xm, yn))
                )

            for kind, rule in ((COZERO, cozero), (ZERO, zero)):
                # the least level at which each pair becomes adjacent
                first = {
                    (a, b): min(
                        (max(m, n) + 1 for m in exps for n in exps if rule(a, b, m, n)),
                        default=None,
                    )
                    for a, b in itertools.combinations(range(len(verts)), 2)
                }
                for lvl in levels:
                    rows = [0] * len(verts)
                    for (a, b), f in first.items():
                        if f is not None and f <= lvl:
                            rows[a] |= 1 << b
                            rows[b] |= 1 << a
                    g = build_level(ring, J, lvl, kind)
                    assert g.rows == tuple(rows), (name, label, kind, lvl)


ORACLE_CASES = ["Z6", "Z12", "Z4", "Z9", "Z2xZ2", "Z4[x]/(x^2)", "Z18"]


@pytest.mark.parametrize("name", ORACLE_CASES)
@pytest.mark.parametrize("kind", [COZERO, ZERO])
def test_oracle_equivalence_small(name, kind):
    ring, J = zero_of(name)
    j_members = set(J.members())
    assert naive_vertices(ring, j_members, kind) == list(vertex_set(ring, J, kind))
    for i in (1, 2, 3):
        got = {
            (x, y)
            for x, y in itertools.combinations(vertex_set(ring, J, kind), 2)
            if build_level(ring, J, i, kind).has_edge(x, y)
        }
        assert got == naive_edges(ring, j_members, i, kind)


def test_oracle_equivalence_nonzero_ideal():
    z12 = build_ring("Z12")
    for gens in ([6], [4]):
        J = span(z12, gens)
        j_members = set(J.members())
        for kind in (COZERO, ZERO):
            for i in (1, 2):
                g = build_level(z12, J, i, kind)
                assert set(g.edges()) == naive_edges(z12, j_members, i, kind)


# quotient rings whose modulus splits mod p, into distinct, repeated or
# higher-degree factors
SPLIT_MODULUS_RINGS = [
    "Z3[t]/(t^4+2)", "Z10[t]/(t^2+1)", "Z12[t]/(t^2+t)",
    "Z2[t]/(t^3+1)", "Z2[t]/(t^4+1)", "Z2[x,t]/(x^2,t^3+1)",
]
# rings that are not local, where R/J can have several maximal ideals
NONLOCAL_RINGS = ["Z6[x]/(x^2)", "Z2[t]/(t^2+t)", "Z10[x]/(x^2)", "Z2xZ3xZ5", "Z4xZ9"]


@pytest.mark.parametrize("name", ORACLE_CASES + NONLOCAL_RINGS + SPLIT_MODULUS_RINGS)
def test_oracle_equivalence_vertices_and_maximality(name):
    # every principal J and a sample of two-generator J, each taken once
    ring = build_ring(name)
    pairs = list(itertools.combinations(range(1, ring.size), 2))
    gen_sets = [(g,) for g in range(ring.size)]
    gen_sets += random.Random(name).sample(pairs, min(8, len(pairs)))
    seen = set()
    for gens in gen_sets:
        J = span(ring, gens)
        if J.bits in seen:
            continue
        seen.add(J.bits)
        j_members = closure_span(ring, gens)
        assert set(J.members()) == j_members, (name, gens)
        verts = naive_vertices(ring, j_members, COZERO)
        assert list(vertex_set(ring, J, COZERO)) == verts, (name, gens)
        assert list(vertex_set(ring, J, ZERO)) == naive_vertices(ring, j_members, ZERO)
        assert is_maximal(J) == (len(j_members) < ring.size and not verts), (name, gens)


def test_unknown_kind_is_rejected():
    z12, J = zero_of("Z12")
    with pytest.raises(ValueError):
        vertex_set(z12, J, "bogus")
    for i in (1, EXTENDED):
        with pytest.raises(ValueError):
            build_level(z12, J, i, "bogus")
    with pytest.raises(ValueError):
        adjacent(z12, J, 2, 3, 1, "bogus")


@pytest.mark.parametrize("name", ["Z6", "Z12", "Z24", "Z36", "Z2[x,y]/(x^3,y^2)"])
def test_symmetry_and_filtration(name):
    ring, J = zero_of(name)
    bound = stabilization_bound(ring, J)
    levels = sorted({1, 2, 3, bound, bound + 1, bound + 3})
    previous = None
    for i in levels:
        g = build_level(ring, J, i)
        n = len(g.vertices)
        for a in range(n):
            for b in range(n):
                assert bool(g.rows[a] >> b & 1) == bool(g.rows[b] >> a & 1)
            assert not g.rows[a] >> a & 1
        if previous is not None:
            assert previous.vertices == g.vertices
            assert set(previous.edges()) <= set(g.edges())
        previous = g
    g_bound = build_level(ring, J, bound)
    for extra in (bound + 1, bound + 3):
        assert set(build_level(ring, J, extra).edges()) == set(g_bound.edges())


@given(
    name=st.sampled_from(["Z6", "Z12", "Z18", "Z24", "Z2xZ2", "Z4xZ9"]),
    i=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_adjacency_matches_oracle_property(name, i, data):
    ring, J = zero_of(name)
    kind = data.draw(st.sampled_from([COZERO, ZERO]))
    verts = vertex_set(ring, J, kind)
    if len(verts) < 2:
        return
    x = data.draw(st.sampled_from(verts))
    y = data.draw(st.sampled_from([v for v in verts if v != x]))
    assert adjacent(ring, J, x, y, i, kind) == naive_adjacent(
        ring, set(J.members()), x, y, i, kind
    )


def small_rings():
    """(name, ring) for each default-grid ring of at most 100 elements."""
    for name in GRID_RINGS:
        ring = build_ring(name)
        if ring.size <= 100:
            yield name, ring


def small_grid():
    """(ring, J) for each default-grid ring of at most 100 elements and grid ideal."""
    for name, ring in small_rings():
        for label in grid_ideals(name):
            yield ring, span_from_labels(ring, label)


# quotient rings with nonzero J beside the small grid, and a Galois ring
# (modulus rewrite) whose only proper nonzero ideal (2) is maximal
TRAJECTORY_QUOTIENT_CASES = [
    ("Z2[x,y]/(x^3,y^2)", "y"),
    ("Z6[x]/(x^2)", "0"),
    ("Z6[x]/(x^2)", "3"),
    ("Z6[x]/(x^2)", "2*x"),
    ("Z6[x]/(x^2)", "x"),
    ("Z4[t]/(t^3+t+1)", "0"),
    ("Z4[t]/(t^3+t+1)", "2"),
]


def trajectory_cases():
    yield from small_grid()
    for name, label in TRAJECTORY_QUOTIENT_CASES:
        ring = build_ring(name)
        yield ring, span_from_labels(ring, label)


def test_power_trajectory_is_descending_chain():
    # x^{m+1}R + J lies in x^mR + J and the chain is constant from its first
    # repeat, so the trajectory stops there; the value cycle's horizon
    # t + p + 1 from power_rho checks the tail independently. Every element
    # is checked, units and members of J included; each power the chain keeps
    # generates its ideal over J; a fresh context filled in reverse carrier
    # order marks the same chains; and ux + j shares the very trajectory of
    # x, whose chain it has by principal_plus and by the coset oracle
    for ring, J in trajectory_cases():
        j_members = sorted(J.members())
        j_set = set(j_members)
        units = [u for u in ring.elements() if ring.is_unit(u)]
        rng = random.Random(f"{ring!r} {J.bits}")
        cosets_of = {}  # value -> value*R + J, each enumerated once

        def cosets(v):
            if v not in cosets_of:
                cosets_of[v] = coset_set(ring, j_set, v)
            return cosets_of[v]

        fresh = LevelContext(ring, J)
        for x in reversed(ring.elements()):
            fresh.trajectory(x)
        for x in ring.elements():
            traj = power_trajectory(ring, J, x)
            chain = traj.ideals
            assert fresh.trajectory(x) == traj
            assert len(set(chain)) == len(chain) == len(traj.powers)
            for m, power in enumerate(traj.powers, 1):
                assert ideal_sum(J, (power,)) is chain[m - 1]
            t, p = power_rho(ring, x)
            for m in range(1, t + p + 2):
                ideal = principal_plus(x, m, J)
                assert ideal is traj.ideal_at(m)
                if m <= len(chain) + 1:
                    assert set(ideal.members()) == cosets(ring.pow(x, m))
            for u, j in zip(rng.sample(units, min(2, len(units))), rng.choices(j_members, k=2)):
                y = digit_add(ring, ring.mul(u, x), j)
                if fresh.vertex_bits() >> x & 1:
                    assert power_trajectory(ring, J, y) is traj
                else:
                    assert power_trajectory(ring, J, y) == traj
                for m in range(1, len(chain) + 2):
                    assert principal_plus(y, m, J) is traj.ideal_at(m)
                    assert cosets(ring.pow(y, m)) == cosets(ring.pow(x, m))


def test_zero_adjacency_reads_the_builders_powers():
    # the zero relation multiplies the powers of whichever member built each
    # orbit's chain; a context filled in reverse carrier order picks other
    # builders than the shared one, and must still match the literal definition
    for name, label in TRAJECTORY_QUOTIENT_CASES:
        ring = build_ring(name)
        J = span_from_labels(ring, label)
        if J.bits == 1:
            continue
        j_members = set(J.members())
        fresh = LevelContext(ring, J)
        for x in reversed(ring.elements()):
            fresh.trajectory(x)
        verts = fresh.vertices()
        if not verts:  # J is maximal
            continue
        # some vertex reads another member's powers
        assert any(fresh.trajectory(v).powers[0] != v for v in verts)
        pairs = list(itertools.combinations(verts, 2))
        rng = random.Random(f"{name} {label}")
        for x, y in rng.sample(pairs, min(400, len(pairs))):
            for i in (1, 2, 3, 4):
                assert fresh.adjacent(x, y, i, ZERO) == naive_adjacent(
                    ring, j_members, x, y, i, ZERO
                ), (name, label, x, y, i)


def test_levels_must_be_positive_ints_or_extended():
    z12, J = zero_of("Z12")
    for bad in (2.5, True, "2", 0, -1, None):
        with pytest.raises(ValueError):
            build_level(z12, J, bad)
        with pytest.raises(ValueError):
            adjacent(z12, J, 2, 3, bad)


def test_trajectory_spans_once_per_orbit(monkeypatch):
    # one chain per orbit Ux + J costs len(chain) + 1 calls of ideal_sum, and
    # its members are read off one mask span per maximal ideal, so a return to
    # one span per vertex fails here, not only in the benchmark
    ring = build_ring("Z2[x]/(x^7)")
    J = zero_ideal(ring)
    units = [u for u in ring.elements() if ring.is_unit(u)]
    orbits = {
        frozenset(ring.add(ring.mul(u, v), j) for u in units for j in J.members())
        for v in vertex_set(ring, J)
    }
    maxima = len(ring.maximal_generators)
    budget = sum(len(power_trajectory(ring, J, min(o)).ideals) + 1 + maxima for o in orbits)
    calls = []

    def counting(name):
        real = getattr(graphs, name)

        def spans(J, values):
            calls.append(values)
            return real(J, values)

        monkeypatch.setattr(graphs, name, spans)

    counting("ideal_sum")
    counting("ideal_sum_bits")
    assert LevelContext(ring, J).stabilization_bound() == 7
    assert 0 < len(calls) <= budget == 32


@pytest.mark.parametrize(
    "name, ideal, bound",
    [
        ("Z2[x]/(x^7)", "0", 7),
        ("Z2310", "0", 1),
        ("Z4xZ9xZ25", "0", 2),
        ("Z6[x]/(x^2)", "0", 2),
        ("Z2[x,y]/(x^3,y^2)", "y", 3),
    ],
)
def test_trajectories_multiply_by_no_unit(monkeypatch, name, ideal, bound):
    # the orbits come from the maximal ideals, not from walking U: once the
    # ring's facts exist, no product has a unit operand other than 1
    ring = build_ring(name)
    J = span_from_labels(ring, ideal)
    units = ring.unit_bits() & ~(1 << ring.one)
    ring.maximal_generators
    ctx = LevelContext(ring, J)
    ctx.vertex_bits()
    by_unit = []
    real = ring.mul

    def counting(a, b):
        if (units >> a | units >> b) & 1:
            by_unit.append((a, b))
        return real(a, b)

    monkeypatch.setattr(ring, "mul", counting)
    assert ctx.stabilization_bound() == bound
    assert by_unit == []


# orbit referee rings: the acceptance oracle rings, the non-local rings, a
# field and quotient rings with two or four local factors, where some
# idempotents are not primitive
ORBIT_RINGS = list(
    dict.fromkeys(
        ORACLE_RINGS
        + NONLOCAL_RINGS
        + ["Z2[t]/(t^3+t)", "Z2[x,y]/(x^2,y^2+y)", "Z3[t]/(t^2+1)", "Z6[t]/(t^2+t)"]
    )
)


def _twin_groups(ctx, order):
    groups = {}
    for v in order:
        groups.setdefault(id(ctx.trajectory(v)), set()).add(v)
    return {frozenset(g) for g in groups.values()}


@pytest.mark.parametrize("name", ORBIT_RINGS)
def test_trajectory_groups_are_the_unit_orbits(name):
    # vertices sharing one trajectory object are exactly the orbits uv + J,
    # whichever member of an orbit is asked for first; the context's classes,
    # numbered by first member in vertex order, are those groups
    ring = build_ring(name)
    units = naive_units(ring)
    seen = set()
    for g in range(ring.size):
        J = span(ring, (g,))
        if J.bits in seen:
            continue
        seen.add(J.bits)
        members = list(J.members())
        verts = vertex_set(ring, J)
        orbits = {
            frozenset(digit_add(ring, ring.mul(u, v), j) for u in units for j in members)
            for v in verts
        }
        assert _twin_groups(LevelContext(ring, J), verts) == orbits, (name, g)
        assert _twin_groups(LevelContext(ring, J), verts[::-1]) == orbits, (name, g)
        ctx = LevelContext(ring, J)
        class_of, trajs, members = ctx.classes()
        assert ctx.classes() is ctx.classes()
        firsts = [class_of.index(c) for c in range(len(trajs))]
        assert firsts == sorted(firsts) and len(class_of) == len(verts)
        assert all(ctx.trajectory(v) is trajs[c] for v, c in zip(verts, class_of))
        groups = {frozenset(v for k, v in enumerate(verts) if mask >> k & 1) for mask in members}
        assert groups == orbits, (name, g)


def test_sharp_index_groups_the_vertices_once(monkeypatch):
    # each lower level reads the context's classes instead of regrouping
    ring, J = zero_of("Z2[x]/(x^9)")
    monkeypatch.setitem(graphs._CONTEXTS, (id(ring), J.bits), LevelContext(ring, J))
    n = len(vertex_set(ring, J))
    assert stabilization_bound(ring, J) == 9
    calls = []
    trajectory = LevelContext.trajectory

    def counting(self, x):
        calls.append(x)
        return trajectory(self, x)

    monkeypatch.setattr(LevelContext, "trajectory", counting)
    assert minimal_stabilization_index(ring, J) == 1
    # the bound reads each vertex's chain once and the classes once more,
    # however many of the nine levels are compared with the limit
    assert len(calls) == 2 * n


def test_vertex_set_nonempty_iff_proper_non_maximal():
    # some maximal M above a proper non-maximal J has an element outside J,
    # and that element is a vertex; the claims' standing check relies on this
    for name, ring in small_rings():
        ideals = [span_from_labels(ring, label) for label in grid_ideals(name)]
        ideals += maximal_ideals(ring)
        ideals.append(unit_ideal(ring))
        for J in ideals:
            assert bool(vertex_set(ring, J)) == (J.is_proper() and not is_maximal(J))


def test_power_multiple_descent_property():
    # x^n y lies in yR + J, so it is never adjacent to y at level 1; the C-DESC
    # runner reports VACUOUS on this lemma instead of searching for such a pair
    for ring, J in small_grid():
        g1 = build_level(ring, J, 1)
        vset = set(g1.vertices)
        for y in g1.vertices:
            for x in range(ring.size):
                t, p = power_rho(ring, x)
                for n in range(1, t + p + 1):
                    w = ring.mul(ring.pow(x, n), y)
                    assert w == y or w not in vset or not g1.has_edge(w, y)


def test_idempotent_descent_property():
    # for an idempotent y, (xy)^m = x^m y lies in y^nR + J, so xy is never
    # adjacent to y at any level; the C-IDEM runner reports VACUOUS on this lemma
    for ring, J in small_grid():
        g_top = build_level(ring, J, stabilization_bound(ring, J))
        vset = set(g_top.vertices)
        for y in g_top.vertices:
            if ring.mul(y, y) != y:
                continue
            for x in range(ring.size):
                u = ring.mul(x, y)
                assert u == y or u not in vset or not g_top.has_edge(u, y)


def test_vertex_set_level_independent_and_zero_subset():
    # in the finite ring R/J a nonzero class is a zero-divisor iff it is not a
    # unit, so the two kinds share one vertex set
    for ring, J in small_grid():
        cozero = vertex_set(ring, J, COZERO)
        assert vertex_set(ring, J, ZERO) == cozero
        assert naive_vertices(ring, set(J.members()), ZERO) == list(cozero)
        for i in (1, 3):
            assert build_level(ring, J, i).vertices == cozero


def test_graph_json_ordering_invariants():
    z24, J = zero_of("Z24")
    g = build_level(z24, J, 2)
    edges = list(g.edges())
    assert edges == sorted(edges)
    assert all(x < y for x, y in edges)
    assert list(g.vertices) == sorted(g.vertices)


@pytest.mark.parametrize(
    "n, order, size",
    [(2310, 1829, 880_802), (1024, 511, 0), (30030, 24_269, 166_490_774)],
)
def test_zn_ext_matches_the_closed_form(n, order, size):
    vertices, rows = zn_cozero_rows(n, n.bit_length())
    assert (len(vertices), sum(r.bit_count() for r in rows) // 2) == (order, size)
    g = build_level(*zero_of(f"Z{n}"), EXTENDED)
    clear_caches()  # the Z30030 level holds about 95 MiB of rows: free them with g
    assert g.vertices == tuple(vertices)
    assert g.rows == tuple(rows)


@pytest.mark.parametrize("n", [360, 1000, 2310])
@pytest.mark.parametrize("i", [1, 2, 3])
def test_zn_levels_match_the_closed_form(n, i):
    g = build_level(*zero_of(f"Z{n}"), i)
    vertices, rows = zn_cozero_rows(n, i)
    assert g.vertices == tuple(vertices)
    assert g.rows == tuple(rows)
