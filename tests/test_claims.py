"""Claim verifier: catalog runners, grids, suite determinism, witnesses."""

import copy
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ringgraphs
from ringgraphs import claims, graphs
from ringgraphs.cli import main
from oracles import coset_set, naive_nilpotents, naive_units, naive_vertices
from test_acceptance import ORACLE_RINGS
from ringgraphs.claims import (
    CATALOG,
    GRID_RINGS,
    REFUTED,
    UNSUPPORTED,
    VACUOUS,
    VERIFIED,
    ClaimInstance,
    ClaimReport,
    SuiteResult,
    check_bipartite_iff,
    default_grid,
    dump_grid,
    grid_ideals,
    load_grid,
    replay_witness,
    run_claim,
    run_suite,
    suite_to_json,
)
from ringgraphs.graphs import stabilization_bound, vertex_set
from ringgraphs.ideals import (
    is_maximal,
    jacobson_radical,
    maximal_ideals,
    principal_plus,
    span,
    span_from_labels,
    zero_ideal,
)
from ringgraphs.rings import ParseError, build_ring


def inst(claim, ring, ideal="0", expected=None, **params):
    return ClaimInstance(claim, ring, ideal, tuple(sorted(params.items())), expected)


def test_catalog_is_complete():
    assert list(CATALOG) == [
        "C-EMPTY", "C-GROW", "C-PRIME", "C-FILT", "C-TRI", "C-XI", "C-CONIL",
        "C-VMEM", "C-ADJ17", "C-DESC", "C-IDEM", "C-BIP", "C-ZDGC", "C-SEMI",
    ]


def test_empty_claim_example():
    report = run_claim(inst("C-EMPTY", "Z27", i=4))
    assert report.status == VERIFIED


def test_grow_claim_example():
    report = run_claim(inst("C-GROW", "Z12", p=2, q=3, n=2))
    assert report.status == VERIFIED
    assert report.witness["x"] == "6" and report.witness["y"] == "2"
    assert report.witness["level"] == 2
    assert report.witness["absent_at_level"] == 1
    assert replay_witness(report)


def test_tripartite_claim_refuted_with_replayable_witness():
    report = run_claim(inst("C-TRI", "Z12", p=2, q=3, n=2))
    assert report.status == REFUTED
    assert (report.witness["x"], report.witness["y"]) == ("3", "6")
    assert replay_witness(report)


def test_zpnq_instances_off_the_ring_shape_are_vacuous():
    # the params are compared with the ring's (p, n, q); p^n q is never
    # computed, so a huge n costs nothing
    start = time.perf_counter()
    huge = [
        run_claim(inst("C-GROW", "Z12", p=2, q=3, n=30_000_000)),
        run_claim(inst("C-GROW", "Z18", p=3, q=2, n=30_000_000)),
    ]
    assert time.perf_counter() - start < 1.0
    for report in (
        *huge,
        run_claim(inst("C-GROW", "Z48", p=4, q=3, n=2)),  # 4 * 4 * 3 = 48, 4 not prime
        run_claim(inst("C-GROW", "Z12", p=2, q=3, n="ext")),  # a grid file may pass "ext"
        run_claim(inst("C-TRI", "Z12", p=2, q=3, n=7)),
        run_claim(inst("C-TRI", "Z12", p=3, q=2, n=2)),
    ):
        assert (report.status, report.witness) == (VACUOUS, None), report.instance


def test_grid_takes_zpnq_params_from_the_ring_shape():
    pinned = {"Z12": (2, 3, 2), "Z24": (2, 3, 3), "Z18": (3, 2, 2), "Z20": (2, 5, 2),
              "Z50": (5, 2, 2)}
    derived = [
        (i.claim, i.ring, (i.param("p"), i.param("q"), i.param("n")))
        for i in default_grid()
        if i.claim in ("C-GROW", "C-TRI")
    ]
    assert derived == [
        (claim, ring, pqn) for ring, pqn in pinned.items() for claim in ("C-GROW", "C-TRI")
    ]


def brute_vertex_membership_cases(ring, J):
    """C-VMEM's case count straight from the definitions, or None if one fails.

    Powers come from ``ring.pow`` up to x^(|R|+1), past any stable power, and
    vertices, units, nilpotents and the ideals x^nR + J from the oracles.
    """
    j_members = set(J.members())
    verts = set(naive_vertices(ring, j_members, "cozero"))
    units = naive_units(ring)
    inside_radical = j_members <= naive_nilpotents(ring)
    cases = 0
    for x in range(ring.size):
        powers = [ring.pow(x, n) for n in range(1, ring.size + 2)]
        stable = next((a for a, b in zip(powers, powers[1:]) if a == b), None)
        one_minus_in = ring.sub(ring.one, x) in verts
        if stable in verts:
            cases += 1
            if not one_minus_in:
                return None
        if inside_radical and one_minus_in and x not in units:
            ideals = [coset_set(ring, j_members, powers[0])]
            while (ideal := coset_set(ring, j_members, powers[len(ideals)])) != ideals[-1]:
                ideals.append(ideal)
            cases += len(ideals)
            if any(a not in verts for a in powers[: len(ideals)]):
                return None
    return cases


def test_vertex_membership_matches_brute_force_cases():
    # the runner reads stable cases, unit bits and power chains; the referee
    # scans every element with ring.pow
    checked = 0
    for name in ORACLE_RINGS:
        ring = build_ring(name)
        for ideal in grid_ideals(name):
            J = span_from_labels(ring, ideal)
            report = run_claim(inst("C-VMEM", name, ideal))
            if report.detail == "ideal is maximal or improper":
                continue
            cases = brute_vertex_membership_cases(ring, J)
            assert cases is not None, (name, ideal)
            expected = (
                (VERIFIED, f"{cases} membership cases verified")
                if cases
                else (VACUOUS, "no element satisfies either hypothesis")
            )
            assert (report.status, report.detail) == expected, (name, ideal)
            checked += bool(cases)
    assert checked >= 16, checked


def test_prime_claim_vacuous_on_finite_rings():
    for ideal in ("0", "6", "4"):
        report = run_claim(inst("C-PRIME", "Z12", ideal, i=1))
        assert report.status == VACUOUS
    report = run_claim(inst("C-PRIME", "Z12", "2", i=1))
    assert report.status == VACUOUS  # prime = maximal: empty graph


def test_filtration_claim_verified():
    assert run_claim(inst("C-FILT", "Z24")).status == VERIFIED
    assert run_claim(inst("C-FILT", "Z2[x,y]/(x^3,y^2)")).status == VERIFIED


def test_xi_claim():
    assert run_claim(inst("C-XI", "Z6")).status == VERIFIED
    assert run_claim(inst("C-XI", "Z12")).status == VACUOUS  # levels differ
    assert run_claim(inst("C-XI", "Z12", "6")).status == VERIFIED


CLASS_MATRIX_CASES = [
    ("C-FILT", "Z24", "0", {}, VERIFIED),
    ("C-XI", "Z12", "0", {}, VACUOUS),
    ("C-XI", "Z12", "6", {}, VERIFIED),
    ("C-EMPTY", "Z27", "0", {"i": "ext"}, VERIFIED),
    ("C-GROW", "Z24", "0", {"p": 2, "q": 3, "n": 3}, VERIFIED),
    ("C-ZDGC", "Z2xZ2", "0", {"i": 2}, VERIFIED),
    ("C-ZDGC", "Z12", "0", {"i": 2}, VACUOUS),
    ("C-SEMI", "Z6", "0", {"i": 1}, VERIFIED),
    ("C-SEMI", "Z2xZ2", "0", {"i": 1}, REFUTED),
    ("C-BIP", "Z12", "0", {"i": 1}, VERIFIED),
    ("C-BIP", "Z36", "6", {"i": "ext"}, VERIFIED),
]


@pytest.mark.parametrize(
    "claim, ring_name, ideal, params, status",
    CLASS_MATRIX_CASES,
    ids=[f"{c}-{ring}-{ideal}-{status}" for c, ring, ideal, _, status in CLASS_MATRIX_CASES],
)
def test_filtration_and_xi_parity_build_no_level(monkeypatch, claim, ring_name, ideal, params,
                                                 status):
    # each reads the context's first-level matrix F, and level i is the
    # threshold F <= i: thresholds of one F nest, two levels differ iff some
    # class pair first relates between them, and completeness, edgelessness
    # and an edge inside a part are questions about class pairs
    ring = build_ring(ring_name)
    J = span_from_labels(ring, ideal)
    ctx = graphs.LevelContext(ring, J)
    monkeypatch.setitem(graphs._CONTEXTS, (id(ring), J.bits), ctx)
    expected = claims._expected_for(claim, ring_name, ideal)
    assert run_claim(inst(claim, ring_name, ideal, expected, **params)).status == status
    assert ctx._graphs == {}


def test_semiprime_claim_counterexample_is_refuted_and_replayable():
    report = run_claim(inst("C-SEMI", "Z2xZ2", i=1))
    assert report.status == REFUTED
    assert report.witness["kind"] == "complete_graph"
    assert report.witness["vertices"] == ["(0,1)", "(1,0)"]
    assert replay_witness(report)


def test_semiprime_claim_holds_elsewhere():
    assert run_claim(inst("C-SEMI", "Z6", i=1)).status == VERIFIED
    assert run_claim(inst("C-SEMI", "Z6", i=3)).status == VERIFIED
    assert run_claim(inst("C-SEMI", "Z12", "6", i=2)).status == VERIFIED
    assert run_claim(inst("C-SEMI", "Z12", i=1)).status == VACUOUS  # 0 not semiprime


def test_zero_divisor_completeness_claim():
    assert run_claim(inst("C-ZDGC", "Z4", i=1)).status == VERIFIED
    assert run_claim(inst("C-ZDGC", "Z2xZ2", i=2)).status == VERIFIED
    assert run_claim(inst("C-ZDGC", "Z12", i=2)).status == VACUOUS


def test_descent_claims_are_vacuous_by_construction():
    # x^n*y always lies in yR+J, so the hypotheses can never fire
    for name in ("Z6", "Z12", "Z24", "Z2xZ2"):
        assert run_claim(inst("C-DESC", name)).status == VACUOUS
        assert run_claim(inst("C-IDEM", name)).status == VACUOUS


def test_conilpotency_claims():
    assert run_claim(inst("C-CONIL", "Z12")).status == VERIFIED
    assert run_claim(inst("C-VMEM", "Z12")).status == VERIFIED
    assert run_claim(inst("C-ADJ17", "Z24")).status == VERIFIED
    assert run_claim(inst("C-CONIL", "Z8")).status == VACUOUS  # local ring


def test_standing_assumption_is_checked_before_the_claims_shape():
    # each instance fails its claim's shape test and has a maximal ideal
    for report in (
        run_claim(inst("C-EMPTY", "Z6", "2", i=1)),
        run_claim(inst("C-GROW", "Z12", "2", p=2, q=3, n=2)),
    ):
        assert (report.status, report.witness, report.detail) == (
            VACUOUS, None, "ideal is maximal or improper"
        )


def test_bipartite_claim():
    assert run_claim(inst("C-BIP", "Z6", i=1)).status == VERIFIED
    assert run_claim(inst("C-BIP", "Z12", i=1)).status == VERIFIED
    assert run_claim(inst("C-BIP", "Z12", i=3)).status == VERIFIED
    assert run_claim(inst("C-BIP", "Z8", i=1)).status == VACUOUS  # one maximal ideal
    assert run_claim(inst("C-BIP", "Z4[x]/(x^2)", i=1)).status == UNSUPPORTED


def test_check_bipartite_iff_direct():
    z6 = build_ring("Z6")
    m1, m2 = maximal_ideals(z6)
    status, witness, detail = check_bipartite_iff(z6, zero_ideal(z6), m1, m2, 1)
    assert status == VERIFIED
    z12 = build_ring("Z12")
    m1, m2 = maximal_ideals(z12)
    status, _, _ = check_bipartite_iff(z12, zero_ideal(z12), m1, m2, 2)
    assert status == VERIFIED
    # an ideal outside the radical fails the op's precondition
    status, _, _ = check_bipartite_iff(z12, span(z12, [2]), m1, m2, 1)
    assert status == VACUOUS


def brute_bipartite_sides(ring, J, m1, m2, i):
    """Side A and side B of C-BIP straight from the definitions."""
    jac = jacobson_radical(ring)
    part1 = [x for x in m1.members() if not jac.contains(x)]
    part2 = [x for x in m2.members() if not jac.contains(x)]
    powers = {
        x: [principal_plus(x, n, J) for n in range(1, i + 1)]
        for x in set(vertex_set(ring, J)) | set(part1) | set(part2)
    }

    def adjacent_at_i(x, y):
        return any(not a.comparable(b) for a in powers[x] for b in powers[y])

    def same_part(x, y):
        return {x, y} <= set(part1) or {x, y} <= set(part2)

    off_radical = [v for v in vertex_set(ring, J) if not jac.contains(v)]
    side_a = set(off_radical) == set(part1) | set(part2) and all(
        adjacent_at_i(x, y) != same_part(x, y)
        for x, y in itertools.combinations(off_radical, 2)
    )
    side_b = all(
        a.comparable(b)
        for part in (part1, part2)
        for x, y in itertools.combinations_with_replacement(part, 2)
        for a in powers[x]
        for b in powers[y]
    )
    return side_a, side_b


def test_check_bipartite_iff_matches_brute_force_sides():
    # side B is read off the class matrix and decides, since B implies A; the
    # brute force decides both sides from power ideals, and checks that they
    # agree, over every ideal inside the radical, every ordered pair of
    # maximal ideals and levels 1 .. bound + 1, on rings with two, three and
    # four maximal ideals
    # Z2[x,y]/(x^3+x,y^2) is Z2[y]/(y^2) x Z2[t,y]/(t^2,y^2): side B holds in
    # the part of the first factor's maximal ideal and fails in the other
    hand_maxima = {"Z2[x,y]/(x^3+x,y^2)": [["x", "y"], ["x+1", "y"]]}
    cases = 0
    for name in GRID_RINGS + ["Z30", "Z60", "Z72", "Z100", "Z120", "Z210", "Z2xZ3xZ5",
                              "Z4xZ3xZ5", "Z2xZ8", *hand_maxima]:
        ring = build_ring(name)
        if name in hand_maxima:
            maxima = [span_from_labels(ring, ",".join(g)) for g in hand_maxima[name]]
            assert all(is_maximal(m) for m in maxima)
        else:
            maxima = maximal_ideals(ring)
        jac = jacobson_radical(ring)
        inside = {span(ring, [x]).bits: span(ring, [x]) for x in jac.members()}
        for J in inside.values():
            for m1, m2 in itertools.permutations(maxima, 2):
                for i in range(1, stabilization_bound(ring, J) + 2):
                    side_a, side_b = brute_bipartite_sides(ring, J, m1, m2, i)
                    assert side_a == side_b, (name, J.bits, i)
                    word = "hold" if side_a else "fail"
                    detail = f"both sides {word}: equivalence confirmed at level {i}"
                    got = check_bipartite_iff(ring, J, m1, m2, i)
                    assert got == (VERIFIED, None, detail), (name, J.bits, i)
                    cases += 1
    assert cases >= 350, cases


def test_bipartite_parts_exclude_radical():
    z12 = build_ring("Z12")
    jac = jacobson_radical(z12)
    assert set(jac.members()) == {0, 6}
    report = run_claim(inst("C-BIP", "Z12", i=1))
    assert report.status == VERIFIED


def test_grid_ideals_are_deterministic_and_well_formed():
    assert grid_ideals("Z12") == ["0", "6", "4"]
    assert grid_ideals("Z8") == ["0", "2", "4"]
    assert grid_ideals("Z6") == ["0"]
    assert grid_ideals("Z2xZ2") == ["0"]
    assert grid_ideals("Z4[x]/(x^2)") == ["0", "2,x", "2"]


# grid ideals and the report's sha256, optionally after spanning every
# principal ideal of the grid rings by its last generator in carrier order
_SPAN_HISTORY_PROBE = """
import hashlib, json, sys
from ringgraphs.claims import GRID_RINGS, default_grid, grid_ideals, run_suite, suite_to_json
from ringgraphs.ideals import span
from ringgraphs.rings import build_ring

if sys.argv[1] == "spanned":
    for name in GRID_RINGS:
        ring = build_ring(name)
        for x in reversed(range(ring.size)):
            span(ring, [x])
ideals = {name: grid_ideals(name) for name in GRID_RINGS}
report = suite_to_json(run_suite(default_grid())).encode()
print(json.dumps({"ideals": ideals, "sha256": hashlib.sha256(report).hexdigest()}))
"""


def _probe_span_history(mode):
    path = [str(Path(ringgraphs.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-c", _SPAN_HISTORY_PROBE, mode],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def test_grid_names_do_not_depend_on_what_was_spanned_before():
    fresh = _probe_span_history("fresh")
    spanned = _probe_span_history("spanned")
    assert fresh["ideals"]["Z8"] == ["0", "2", "4"]
    assert spanned == fresh
    pins = json.loads((Path(__file__).parents[1] / "perfbench" / "pins.json").read_text())
    assert spanned["sha256"] == pins["verify-grid"]["report_sha256"]


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid) > 1000
    claims_seen = {i.claim for i in grid}
    assert claims_seen == set(CATALOG)
    # pinned expectations
    for i in grid:
        if i.claim == "C-TRI":
            assert i.expected == REFUTED
        elif i.claim == "C-SEMI" and i.ring == "Z2xZ2" and i.ideal == "0":
            assert i.expected == REFUTED
        else:
            assert i.expected == VERIFIED


def test_run_suite_empty():
    result = run_suite([])
    assert result.reports == [] and result.summary == {} and result.ok


def test_run_suite_small_deterministic_across_workers():
    grid = [
        inst("C-EMPTY", "Z27", i=4, expected=VERIFIED),
        inst("C-GROW", "Z12", p=2, q=3, n=2, expected=VERIFIED),
        inst("C-TRI", "Z12", p=2, q=3, n=2, expected=REFUTED),
        inst("C-BIP", "Z6", i=1, expected=VERIFIED),
        inst("C-SEMI", "Z2xZ2", i=1, expected=REFUTED),
    ]
    r1 = run_suite(grid)
    r4 = run_suite(grid, workers=4)
    assert suite_to_json(r1) == suite_to_json(r4)
    assert r1.ok
    assert r1.summary["C-TRI"] == {"REFUTED": 1}


def test_run_suite_flags_mismatches():
    grid = [inst("C-TRI", "Z12", p=2, q=3, n=2, expected=VERIFIED)]
    result = run_suite(grid)
    assert not result.ok
    assert len(result.mismatches) == 1


def test_refuted_witnesses_replay(tmp_path):
    grid = [
        inst("C-TRI", "Z12", p=2, q=3, n=2),
        inst("C-TRI", "Z24", p=2, q=3, n=3),
        inst("C-SEMI", "Z2xZ2", i=2),
    ]
    for report in run_suite(grid).reports:
        assert report.status == REFUTED
        assert report.witness is not None
        assert replay_witness(report)


def with_witness(report, **changes):
    witness = copy.deepcopy(report.witness)
    witness.update(changes)
    return ClaimReport(report.instance, report.status, witness, report.detail)


def made_report(claim, ring, witness, ideal="0"):
    return ClaimReport(inst(claim, ring, ideal), REFUTED, witness)


ELEMENT_CONDITIONS = [
    "1-x inside x^n R + J",
    "x^n inside R(1-x) + J",
    "1-x not a vertex despite stable vertex power",
    "x^n not a vertex despite 1-x being one",
    "x^n equals 1-x",
    "pair not inside the vertex set",
    "pair not adjacent at level 1",
]


def test_tampered_witnesses_do_not_replay():
    grow = run_claim(inst("C-GROW", "Z12", p=2, q=3, n=2))
    tri = run_claim(inst("C-TRI", "Z12", p=2, q=3, n=2))
    arity = run_claim(inst("C-TRI", "Z6", p=2, q=3, n=1))
    semi = run_claim(inst("C-SEMI", "Z2xZ2", i=2))
    assert arity.witness["kind"] == "arity" and arity.witness["arity"] == 2
    # levels 2 and 3 of Z12 coincide (its bound is 2); Z6 at level 1 is complete
    # bipartite on {2, 4} and {3}; 2 and 3 are not zero-adjacent at level 1
    equal = made_report("C-GROW", "Z12", {"kind": "graphs_equal", "graph": "cozero",
                                          "levels": [2, 3]})
    partition = made_report("C-TRI", "Z6", {"kind": "partition", "graph": "cozero",
                                            "level": 1, "parts": [["2", "4"], ["3"]]})
    non_edge = made_report("C-ZDGC", "Z12", {"kind": "non_edge", "graph": "zero",
                                             "level": 1, "x": "2", "y": "3"})
    genuine = [grow, tri, arity, semi, equal, partition, non_edge]
    for report in genuine:
        assert replay_witness(report), report.witness

    # 4 = 4^2 in Z12 and 1 - 4 = 9, so each element condition is checked on a
    # stable power whose hypotheses hold; x = 1 is a unit and breaks them
    elements = [
        made_report("C-CONIL", "Z12", {"kind": "element", "x": "4", "n": 1,
                                       "pair": ["4", "9"], "condition": condition})
        for condition in ELEMENT_CONDITIONS
    ]
    tampered = elements + [
        with_witness(grow, level=1),
        with_witness(tri, reason="edge inside a part"),
        with_witness(tri, parts=[["3", "6", "9"], ["2", "4", "8", "10"]]),
        with_witness(arity, arity=3),
        with_witness(arity, parts=list(reversed(arity.witness["parts"]))),
        with_witness(semi, vertices=["(0,1)"]),
        with_witness(equal, levels=[1, 2]),
        with_witness(partition, parts=[["2"], ["3", "4"]]),
        with_witness(partition, parts=[["2"], ["3"]]),
        with_witness(non_edge, level=2),
        made_report("C-XI", "Z12", {"kind": "element", "x": "5", "n": 2}, ideal="6"),
        made_report("C-CONIL", "Z6", {"kind": "element", "x": "1", "n": 1,
                                      "condition": "1-x inside x^n R + J"}),
        made_report("C-ADJ17", "Z12", {"kind": "element", "x": "4", "n": 1,
                                       "pair": ["9", "4"],
                                       "condition": "pair not adjacent at level 1"}),
        made_report("C-EMPTY", "Z12", {"kind": "no_such_kind"}),
    ]
    for report in tampered:
        assert not replay_witness(report), report.witness


def test_grid_file_round_trip(tmp_path):
    grid = [
        inst("C-EMPTY", "Z27", i=4, expected=VERIFIED),
        inst("C-BIP", "Z6", i=1, expected=VERIFIED),
    ]
    path = tmp_path / "grid.json"
    path.write_text(dump_grid(grid), encoding="utf-8")
    loaded = load_grid(str(path))
    assert loaded == grid


def test_suite_json_has_no_timings():
    result = run_suite([inst("C-EMPTY", "Z27", i=4)])
    payload = json.loads(suite_to_json(result))
    assert "elapsed" not in json.dumps(payload)
    assert payload["reports"][0]["status"] == VERIFIED


def test_unknown_claim_rejected():
    with pytest.raises(ValueError):
        run_claim(inst("C-NOPE", "Z12"))


def _standard_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _suite_object(result) -> dict:
    return {
        "reports": [rep.as_dict() for rep in result.reports],
        "summary": result.summary,
        "mismatches": len(result.mismatches),
    }


def test_suite_json_matches_the_standard_encoder_on_the_default_grid():
    result = run_suite(default_grid())
    assert suite_to_json(result) == _standard_json(_suite_object(result))


# one witness of every kind the runners emit, and values no report holds today
HAND_BUILT_WITNESSES = [
    None,
    {"kind": "edge", "graph": "cozero", "level": 2, "x": "2", "y": "3", "absent_at_level": 1},
    {"kind": "non_edge", "graph": "zero", "level": 1, "x": "x", "y": "x+1"},
    {"kind": "partition_pair", "graph": "cozero", "level": 2, "x": "2", "y": "4",
     "reason": "edge inside a part", "parts": [["2", "4"], [], ["3"]],
     "direction": "ordered ideals but not complete bipartite"},
    {"kind": "complete_graph", "graph": "zero", "level": 1, "vertices": ["(0,1)", "(1,0)"]},
    {"kind": "partition", "graph": "cozero", "level": 2, "parts": [["2"], ["3", "9"]]},
    {"kind": "graphs_equal", "graph": "cozero", "levels": (1, 2)},
    {"kind": "arity", "arity": 2, "parts": [["6"], ["2", "10"]]},
    {"kind": "element", "x": "3", "n": 2},
    {"kind": "element", "x": "x+y", "n": 1, "condition": "x^n equals 1-x", "pair": ["1", "1"]},
    {"kind": "element", "x": "5", "n": -3, "flags": [True, False, None], "ratio": 0.25,
     "scale": 1e-300, "huge": 10**40, "nested": {"b": {}, "a": (), "c": [[]]}},
]


def test_suite_json_matches_the_standard_encoder_on_hand_built_reports(tmp_path):
    shared = (("i", 2), ("p", "ext"))
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(dump_grid([
        inst("C-EMPTY", "Z27", i="ext", expected=VERIFIED),
        inst("C-BIP", "Z6", "2", i=1),
        inst("C-FILT", "Z12", "6", expected=VACUOUS),
    ]), encoding="utf-8")
    reports = [
        ClaimReport(
            ClaimInstance("C-EMPTY", "Z27", params=(("i", 4),), expected=VERIFIED),
            VERIFIED, HAND_BUILT_WITNESSES[0], "|V|=8, no edges",
        ),
        ClaimReport(ClaimInstance("C-FILT", "Z4[x]/(x^2)", "2,x", params=()), VACUOUS, None, ""),
        ClaimReport(
            ClaimInstance("C-XI", "Z2xZ2", expected=None), REFUTED, HAND_BUILT_WITNESSES[8],
            "non-ASCII: x \u2208 J \u2014 \u00fc\U0001d53d \"quoted\" \\ tab\t",
        ),
        # one params tuple under different witnesses, details and expectations
        ClaimReport(ClaimInstance("C-BIP", "Z6", params=shared), VERIFIED, None, "first"),
        ClaimReport(
            ClaimInstance("C-BIP", "Z12", "6", shared, REFUTED), REFUTED, HAND_BUILT_WITNESSES[2],
            "second",
        ),
        ClaimReport(ClaimInstance("C-ZDGC", "Z6", params=shared), VERIFIED, {}, ""),
        # equal as tuples, written differently
        ClaimReport(ClaimInstance("C-BIP", "Z6", params=(("i", 1),)), VERIFIED, None, ""),
        ClaimReport(ClaimInstance("C-BIP", "Z6", params=(("i", True),)), VERIFIED, None, ""),
        ClaimReport(ClaimInstance("C-BIP", "Z6", params=(("i", 1.0),)), VERIFIED, None, ""),
    ]
    for k, loaded in enumerate(load_grid(str(grid_file))):
        reports.append(ClaimReport(loaded, VACUOUS, HAND_BUILT_WITNESSES[k], f"loaded {k}"))
    for k, witness in enumerate(HAND_BUILT_WITNESSES):
        instance = ClaimInstance("C-BIP", "Z6", params=(("i", k + 1), ("p", "ext")))
        reports.append(ClaimReport(instance, REFUTED, witness, f"case {k}"))
    summary = {"C-BIP": {REFUTED: len(HAND_BUILT_WITNESSES)}, "C-EMPTY": {VERIFIED: 1}}
    for result in (
        SuiteResult(reports, summary, reports[:2]),
        SuiteResult([], {}),
        SuiteResult(reports[1:2], {"C-FILT": {}}),
    ):
        assert suite_to_json(result) == _standard_json(_suite_object(result))


def test_grid_file_matches_the_standard_encoder_on_the_default_grid():
    grid = default_grid()
    assert dump_grid(grid) == _standard_json([i.as_dict() for i in grid])


def _spy(monkeypatch, name, calls):
    real = getattr(claims, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(claims, name, spy)


def test_run_suite_resolves_each_ring_and_ideal_once(monkeypatch):
    grid = default_grid()
    random.Random(20).shuffle(grid)
    per_instance = [run_claim(i).as_dict() for i in grid]
    built, spanned, cased = [], [], []
    _spy(monkeypatch, "build_ring", built)
    _spy(monkeypatch, "span_from_labels", spanned)
    _spy(monkeypatch, "_stable_cases", cased)
    result = run_suite(grid)
    pairs = {(i.ring, i.ideal) for i in grid}
    resolved = {(name, label) for (name,), (_, label) in zip(built, spanned)}
    assert len(built) == len(spanned) == len(pairs) < len(grid)
    assert resolved == pairs
    assert [rep.as_dict() for rep in result.reports] == per_instance
    # C-VMEM reads the stable cases whenever the standing assumption holds,
    # and every ring's are found once in the suite
    read = {rep.instance.ring for rep in result.reports
            if rep.instance.claim == "C-VMEM" and rep.detail != "ideal is maximal or improper"}
    assert sorted(id(ring) for (ring,) in cased) == sorted(id(build_ring(name)) for name in read)


@pytest.mark.parametrize(
    "bad, error",
    [
        ({"ring": "Z12["}, ParseError),
        ({"ideal": "2,y"}, ParseError),
        ({"claim": "C-NOPE"}, ValueError),
    ],
    ids=["ring", "ideal", "claim"],
)
def test_malformed_second_instance_raises_at_that_instance(
    monkeypatch, tmp_path, capsys, bad, error
):
    first = inst("C-EMPTY", "Z27", i=4)
    second = ClaimInstance(**{"claim": "C-FILT", "ring": "Z12", "ideal": "0", **bad})
    evaluated, built = [], []
    _spy(monkeypatch, "_evaluate", evaluated)
    _spy(monkeypatch, "build_ring", built)
    with pytest.raises(error):
        run_suite([first, second, first])
    assert [args[0] for args in evaluated] == [first, second]
    # an unknown claim id raises before its ring is resolved
    assert [name for (name,) in built] == ["Z27"] + ([] if "claim" in bad else [second.ring])
    path = tmp_path / "grid.json"
    path.write_text(dump_grid([first, second]), encoding="utf-8")
    assert main(["verify", "--grid", str(path)]) == 2
    assert "error" in capsys.readouterr().err
