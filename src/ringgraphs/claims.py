"""Executable catalog of the structural claims about level graphs.

Every claim is instantiated over a parameter grid, checked hypothesis-first,
and reported with a deterministic status:

* VERIFIED    -- hypotheses held and the conclusion checked out exhaustively.
* REFUTED     -- hypotheses held and a concrete counterexample was found;
                 the witness replays through the public graph operations.
* VACUOUS     -- the hypotheses select nothing on this instance.
* UNSUPPORTED -- the instance needs ring machinery we do not enumerate.

Throughout, the ideal is required to be proper and non-maximal before any
claim-specific hypothesis runs; a maximal ideal empties the vertex set and
makes every statement about the graphs degenerate.
"""

from __future__ import annotations

import json
import time
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from . import analysis
from .analysis import (
    PartitionWitness,
    check_partition_claim,
    induced_subgraph,
    is_complete,
    is_empty_graph,
    zpnq_parts,
)
from .conilpotency import conilpotency_maximum, conilpotency_record, ring_conilpotency_index
from .graphs import (
    COZERO,
    EXTENDED,
    ZERO,
    GraphLevel,
    adjacent,
    build_level,
    level_context,
)
from .ideals import (
    IdealSet,
    ideal_sum,
    is_maximal,
    is_semiprime,
    jacobson_radical,
    maximal_ideals,
    principal_plus,
    span,
    span_from_labels,
)
from .rings import ModularRing, ParseError, PolyQuotientRing, Ring, build_ring, set_bit_items

VERIFIED = "VERIFIED"
REFUTED = "REFUTED"
VACUOUS = "VACUOUS"
UNSUPPORTED = "UNSUPPORTED"


class ClaimInstance(NamedTuple):
    claim: str
    ring: str
    ideal: str = "0"
    params: tuple[tuple[str, object], ...] = ()
    expected: Optional[str] = None

    def param(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    def as_dict(self) -> dict:
        return {
            "claim": self.claim,
            "ring": self.ring,
            "ideal": self.ideal,
            "params": dict(self.params),
            "expected": self.expected,
        }

    @staticmethod
    def from_dict(d: dict) -> "ClaimInstance":
        params = tuple(sorted((d.get("params") or {}).items()))
        return ClaimInstance(
            claim=d["claim"],
            ring=d["ring"],
            ideal=d.get("ideal", "0"),
            params=params,
            expected=d.get("expected"),
        )


class ClaimReport:
    def __init__(self, instance: ClaimInstance, status: str, witness: Optional[dict] = None,
                 detail: str = "", elapsed: float = 0.0):
        self.instance, self.status, self.witness = instance, status, witness
        self.detail, self.elapsed = detail, elapsed

    def as_dict(self) -> dict:
        # elapsed is intentionally left out: reports must be byte-identical
        # across runs and worker counts
        d = self.instance.as_dict()
        d["status"] = self.status
        d["witness"] = self.witness
        d["detail"] = self.detail
        return d


class _Resolved:
    """One instance with its ring, its ideal J and their shared level context."""

    def __init__(self, inst: ClaimInstance, ring: Ring, J: IdealSet):
        self.instance = inst
        self.ring = ring
        self.J = J
        self.ctx = level_context(ring, J)

    def level(self, i) -> int:
        return self.ctx.level(EXTENDED if i == "ext" else i)

    def graph(self, i, kind: str = COZERO) -> GraphLevel:
        return build_level(self.ring, self.J, self.level(i), kind)


def _standing_ok(r: _Resolved) -> bool:
    """The blanket assumption: the ideal is proper and not maximal.

    ``run_claim`` checks it before any runner. It holds exactly when the
    vertex set is nonempty: an element of a maximal ideal strictly above J
    but outside J is a vertex, and a maximal or improper J has none.
    """
    return bool(r.ctx.vertex_bits())


def _first_pair(g: GraphLevel, masks: Iterable[int]) -> Optional[tuple[int, int]]:
    """The first vertex pair of g, in carrier order, set above the diagonal.

    ``masks`` are indexed like ``g.rows``: the rows give the first edge, the
    complemented rows the first non-edge, and ``row & ~other_row`` for a
    level ``other`` over the same (ring, J), which shares g's vertex tuple,
    the first edge of g that ``other`` lacks.
    """
    for k, mask in enumerate(masks):
        above = mask >> (k + 1)
        if above:
            return g.vertices[k], g.vertices[k + (above & -above).bit_length()]
    return None


def _missing_from(g: GraphLevel, other: GraphLevel) -> Iterator[int]:
    """The rows of g with the edges of other removed."""
    return (row & ~other_row for row, other_row in zip(g.rows, other.rows))


def _pair_witness(kind: str, g: GraphLevel, x: int, y: int, **extra) -> dict:
    """A witness naming the vertex pair x, y of g; replay_witness re-checks it."""
    label = g.ring.label
    witness = {"kind": kind, "graph": g.kind, "level": g.level, "x": label(x), "y": label(y)}
    return {**witness, **extra}


def _element_witness(r: _Resolved, x: int, n: int, condition: str) -> dict:
    return {"kind": "element", "x": r.ring.label(x), "n": n, "condition": condition}


# ---------------------------------------------------------------------------
# Claim runners
# ---------------------------------------------------------------------------

def _is_zpn(ring: Ring) -> bool:
    """Z_{p^n}: a modular ring with exactly one maximal ideal."""
    return isinstance(ring.descriptor, ModularRing) and len(ring.maximal_generators) == 1


def _run_empty(r: _Resolved):
    if not _is_zpn(r.ring):
        return VACUOUS, None, "ring is not Z_{p^n}"
    if r.J.bits != 1:
        return VACUOUS, None, "ideal is not 0"
    g = r.graph(r.instance.param("i", 1))
    if is_empty_graph(g):
        return VERIFIED, None, f"|V|={len(g.vertices)}, no edges"
    return REFUTED, _pair_witness("edge", g, *_first_pair(g, g.rows)), "an edge exists"


def _zpnq_instance(r: _Resolved) -> Optional[tuple[int, int, int]]:
    """The ring's (p, n, q) when the ideal is 0 and the params p, n, q name it."""
    try:
        shape = analysis.zpnq_shape(r.ring)
    except analysis.NotZpnqForm:
        return None
    named = tuple(r.instance.param(key) for key in ("p", "n", "q"))
    return shape if named == shape and r.J.bits == 1 else None


def _run_grow(r: _Resolved):
    shape = _zpnq_instance(r)
    if shape is None or shape[1] <= 1:
        return VACUOUS, None, "instance does not match Z_{p^n q} with n > 1 and ideal 0"
    p, n, _ = shape
    g_lo = r.graph(n - 1)
    g_hi = r.graph(n)
    if analysis.graph_equals(g_lo, g_hi):
        return REFUTED, {
            "kind": "graphs_equal",
            "graph": COZERO,
            "levels": [n - 1, n],
        }, "levels n-1 and n coincide"
    u, v = r.ring.size // p, p  # p^(n-1) q and p
    if not g_lo.has_edge(u, v) and g_hi.has_edge(u, v):
        witness = _pair_witness("edge", g_hi, u, v, absent_at_level=n - 1)
        return VERIFIED, witness, "levels differ; the expected pair is the new edge"
    x, y = _first_pair(g_hi, _missing_from(g_hi, g_lo))
    witness = _pair_witness("edge", g_hi, x, y, absent_at_level=n - 1)
    return VERIFIED, witness, "levels differ (expected pair did not witness it)"


def _run_prime(r: _Resolved):
    # R/P is a finite domain, hence a field, so a prime ideal is maximal and
    # the standing check has already excluded it
    return VACUOUS, None, "ideal is not prime"


def _run_filtration(r: _Resolved):
    bound = r.ctx.stabilization_bound()
    levels = sorted({1, 2, 3, bound, bound + 1})
    graphs = [r.graph(i) for i in levels]
    for g_lo, g_hi in zip(graphs, graphs[1:]):
        lost = _first_pair(g_lo, _missing_from(g_lo, g_hi))
        if lost is not None:
            x, y = lost
            witness = _pair_witness("edge", g_lo, x, y, absent_at_level=g_hi.level)
            return REFUTED, witness, "edge lost at a higher level"
    return VERIFIED, None, f"chain verified across levels {levels}"


def _run_tripartite(r: _Resolved):
    shape = _zpnq_instance(r)
    if shape is None:
        return VACUOUS, None, "instance does not match Z_{p^n q} with ideal 0"
    parts = zpnq_parts(r.ring)
    g = r.graph(shape[1])
    part_labels = [[r.ring.label(v) for v in part] for part in parts.parts]
    if parts.arity != 3:
        return REFUTED, {
            "kind": "arity",
            "arity": parts.arity,
            "parts": part_labels,
        }, "valuation split does not have three nonempty parts"
    verdict = check_partition_claim(g, parts)
    if verdict.holds:
        return VERIFIED, {
            "kind": "partition",
            "graph": COZERO,
            "level": g.level,
            "parts": part_labels,
        }, "complete tripartite with the valuation parts"
    witness = _pair_witness(
        "partition_pair", g, *verdict.witness, reason=verdict.reason, parts=part_labels
    )
    return REFUTED, witness, f"partition claim fails: {verdict.reason}"


def _run_xi_parity(r: _Resolved):
    if not analysis.graph_equals(r.graph(1), r.graph(2)):
        return VACUOUS, None, "levels 1 and 2 differ"
    xi, x = conilpotency_maximum(r.ring, r.J)
    if xi is None:
        return VERIFIED, None, "no conilpotent element; index undefined"
    if xi % 2 == 1:
        return VERIFIED, None, f"ring index {xi} is odd"
    witness = {"kind": "element", "x": r.ring.label(x), "n": xi}
    return REFUTED, witness, f"ring index {xi} is even"


def _stable_power(ring: Ring, x: int) -> Optional[tuple[int, int]]:
    """The least n with x^n = x^(n+1), and x^n, if there is such an n.

    In each local factor of R, x is a unit, whose powers are purely periodic,
    or nilpotent. A nilpotent x with x^k = 0 and x^(k-1) != 0 gives the
    strict chain R > xR > ... > x^kR = 0 (an equal step x^jR = x^(j+1)R
    would make x^j a multiple of every higher power of x, hence 0), and each
    step at least halves the size, so 2^k <= |R|. So a stable power exists
    exactly when every unit component is 1, and then the least one is at
    most K = bit_length(|R|); the search stops there.
    """
    p = x  # the running power x^n
    for n in range(1, ring.size.bit_length() + 1):
        q = ring.mul(p, x)
        if q == p:
            return n, p
        p = q
    return None


def _stable_cases(ring: Ring) -> tuple[tuple[int, int, int], ...]:
    """(x, n, x^n) for each non-unit x outside the radical with a stable power x^n."""
    if ring._stable_cases is None:  # racing fills agree
        cases = []
        others = ring.full_bits & ~(ring.unit_bits() | ring.nilpotent_bits())
        for x in set_bit_items(others, range(ring.size)):
            stable = _stable_power(ring, x)
            if stable is not None:
                cases.append((x, *stable))
        ring._stable_cases = tuple(cases)
    return ring._stable_cases


def _run_conilpotent_elements(r: _Resolved):
    ring = r.ring
    if not r.J.issubset(jacobson_radical(ring)):
        return VACUOUS, None, "ideal is not inside the radical"
    cases = _stable_cases(ring)
    if not cases:
        return VACUOUS, None, "no non-unit outside the radical has a stable power"
    for x, n, _ in cases:
        one_minus = ring.sub(ring.one, x)
        complement = r.ctx.trajectory(one_minus).ideals[0]
        power_ideal = r.ctx.trajectory(x).ideal_at(n)
        if power_ideal.contains(one_minus):
            witness = _element_witness(r, x, n, "1-x inside x^n R + J")
            return REFUTED, witness, "first non-membership fails"
        if power_ideal.issubset(complement):
            witness = _element_witness(r, x, n, "x^n inside R(1-x) + J")
            return REFUTED, witness, "second non-membership fails"
    return VERIFIED, None, f"{len(cases)} stable-power cases verified"


def _run_vertex_membership(r: _Resolved):
    ring, J = r.ring, r.J
    vbits = r.ctx.vertex_bits()
    one = ring.one
    checked = 0
    # stable power in the vertex set forces 1 - x in; a unit's stable power
    # is 1 and a nilpotent's is 0, and neither is a vertex
    for x, n, xn in _stable_cases(ring):
        if not vbits >> xn & 1:
            continue
        checked += 1
        if not vbits >> ring.sub(one, x) & 1:
            witness = _element_witness(r, x, n, "1-x not a vertex despite stable vertex power")
            return REFUTED, witness, "forward membership fails"
    # with J inside the radical, 1 - x a vertex forces every power in: x is
    # then a vertex, so x^n is one exactly when x^nR + J != J, and of the
    # strictly descending chain only the last ideal can be J
    if J.issubset(jacobson_radical(ring)):
        for x in set_bit_items(ring.full_bits & ~ring.unit_bits(), range(ring.size)):
            if not vbits >> ring.sub(one, x) & 1:
                continue
            chain = r.ctx.trajectory(x).ideals
            checked += len(chain)
            if chain[-1] is J:
                witness = _element_witness(
                    r, x, len(chain), "x^n not a vertex despite 1-x being one"
                )
                return REFUTED, witness, "reverse membership fails"
    if checked == 0:
        return VACUOUS, None, "no element satisfies either hypothesis"
    return VERIFIED, None, f"{checked} membership cases verified"


def _run_stable_adjacency(r: _Resolved):
    ring = r.ring
    if not r.J.issubset(jacobson_radical(ring)):
        return VACUOUS, None, "ideal is not inside the radical"
    cases = _stable_cases(ring)
    if not cases:
        return VACUOUS, None, "no non-unit outside the radical has a stable power"
    vbits = r.ctx.vertex_bits()
    for x, n, u in cases:
        v = ring.sub(ring.one, x)
        witness = {
            "kind": "element",
            "x": ring.label(x),
            "n": n,
            "pair": [ring.label(u), ring.label(v)],
        }
        if u == v:
            witness["condition"] = "x^n equals 1-x"
            return REFUTED, witness, "pair collapses to one element"
        if not (vbits >> u & 1 and vbits >> v & 1):
            witness["condition"] = "pair not inside the vertex set"
            return REFUTED, witness, "pair leaves the vertex set"
        if not r.ctx.adjacent(u, v, 1, COZERO):
            witness["condition"] = "pair not adjacent at level 1"
            return REFUTED, witness, "adjacency fails at level 1"
    return VERIFIED, None, f"{len(cases)} adjacency cases verified"


def _run_power_descent(r: _Resolved):
    # x^n y lies in yR, so x^n y is never adjacent to y at level 1
    return VACUOUS, None, "no adjacent power-multiple pair at level 1"


def _run_idempotent_descent(r: _Resolved):
    # (xy)^m = x^m y lies in y^nR for an idempotent y, so xy is never adjacent to y
    return VACUOUS, None, "no idempotent vertex with an adjacent multiple"


def _run_bipartite(r: _Resolved):
    # maximal_ideals answers for every ring, but the benchmark pins these 16 default-grid
    # instances UNSUPPORTED; their re-pin (ROADMAP, "C-BIP on every ring") deletes this check
    if isinstance(r.ring.descriptor, PolyQuotientRing):
        return UNSUPPORTED, None, "maximal ideals are not enumerated for this ring"
    maxima = maximal_ideals(r.ring)
    if len(maxima) != 2:
        return VACUOUS, None, f"ring has {len(maxima)} maximal ideals, not 2"
    return check_bipartite_iff(r.ring, r.J, *maxima, r.level(r.instance.param("i", 1)))


def check_bipartite_iff(ring: Ring, J: IdealSet, m1: IdealSet, m2: IdealSet, i: int):
    """Both directions of the two-maximal-ideal bipartiteness equivalence.

    Side A: the level graph with radical vertices removed is complete
    bipartite with parts m1 and m2 minus the radical. Side B: power ideals
    of same-part vertices are pairwise comparable for all exponents <= i.

    A part member x lies outside the radical, hence outside J, and
    xR + J lies in m1 or m2, so x is a vertex; two vertices are adjacent at
    level i exactly when some x^nR + J and y^mR + J with n, m <= i are
    incomparable. So side B says that no edge of the level graph joins two
    members of one part. Side A forbids those edges too, so A implies B,
    and only B without A can refute the equivalence. B also leaves no vertex
    off the radical outside the parts: R/J is a product of local rings, and a
    third factor would put the idempotents of two factors other than m1's,
    whose ideals are incomparable, into part 1.
    Returns (status, witness, detail).
    """
    jac = jacobson_radical(ring)
    if not J.issubset(jac):
        return VACUOUS, None, "ideal is not inside the radical"
    if not (is_maximal(m1) and is_maximal(m2)) or m1.bits == m2.bits:
        return VACUOUS, None, "supplied ideals are not two distinct maximal ideals"
    part1, part2 = (tuple(set_bit_items(m.bits & ~jac.bits, range(ring.size))) for m in (m1, m2))
    g = build_level(ring, J, i, COZERO)
    if _edge_inside(g, part1) or _edge_inside(g, part2):
        return VERIFIED, None, f"both sides fail: equivalence confirmed at level {i}"
    restricted = induced_subgraph(g, set(part1) | set(part2))
    verdict = check_partition_claim(restricted, PartitionWitness((part1, part2)))
    if verdict.holds:
        return VERIFIED, None, f"both sides hold: equivalence confirmed at level {i}"
    witness = _pair_witness(
        "partition_pair",
        restricted,
        *verdict.witness,
        reason=verdict.reason,
        parts=[[ring.label(v) for v in part] for part in (part1, part2)],
        direction="ordered ideals but not complete bipartite",
    )
    return REFUTED, witness, "the two sides disagree"


def _edge_inside(g: GraphLevel, part: tuple[int, ...]) -> bool:
    mask = sum(1 << g.position_of(x) for x in part)
    return any(g.rows[g.position_of(x)] & mask for x in part)


def _run_zero_divisor_completeness(r: _Resolved):
    i = r.instance.param("i", 1)
    g_co = r.graph(i, COZERO)
    if not is_complete(g_co):
        return VACUOUS, None, "the cozero graph is not complete at this level"
    g_z = r.graph(i, ZERO)
    if is_complete(g_z):
        return VERIFIED, None, f"both graphs complete at level {g_z.level}"
    full = (1 << len(g_z.vertices)) - 1
    witness = _pair_witness("non_edge", g_z, *_first_pair(g_z, (full ^ row for row in g_z.rows)))
    return REFUTED, witness, "zero-divisor graph is not complete"


def _run_semiprime_incompleteness(r: _Resolved):
    if not is_semiprime(r.J):
        return VACUOUS, None, "ideal is not semiprime"
    # the standing assumption leaves both graphs a nonempty vertex set
    for kind, name in ((ZERO, "zero-divisor"), (COZERO, "cozero")):
        g = r.graph(r.instance.param("i", 1), kind)
        if is_complete(g):
            witness = {
                "kind": "complete_graph",
                "graph": kind,
                "level": g.level,
                "vertices": [r.ring.label(v) for v in g.vertices],
            }
            return REFUTED, witness, f"{name} graph is complete"
    return VERIFIED, None, f"neither graph is complete at level {g.level}"


class ClaimDef(NamedTuple):
    claim_id: str
    summary: str
    runner: Callable[[_Resolved], tuple]
    default_expected: str = VERIFIED


CATALOG: dict[str, ClaimDef] = {
    c.claim_id: c
    for c in [
        ClaimDef(
            "C-EMPTY",
            "prime-power modulus with the zero ideal gives an edgeless graph at every level",
            _run_empty,
        ),
        ClaimDef(
            "C-GROW",
            "over Z_{p^n q} with the zero ideal, levels n-1 and n differ",
            _run_grow,
        ),
        ClaimDef(
            "C-PRIME",
            "a prime ideal never yields a complete graph",
            _run_prime,
        ),
        ClaimDef(
            "C-FILT",
            "edge sets only grow with the level over a fixed vertex set",
            _run_filtration,
        ),
        ClaimDef(
            "C-TRI",
            "over Z_{p^n q} at level n the graph is complete tripartite on the valuation parts",
            _run_tripartite,
            default_expected=REFUTED,
        ),
        ClaimDef(
            "C-XI",
            "when levels 1 and 2 coincide the ring conilpotency index is never even",
            _run_xi_parity,
        ),
        ClaimDef(
            "C-CONIL",
            "non-units outside the radical with a stable power are conilpotent at that exponent",
            _run_conilpotent_elements,
        ),
        ClaimDef(
            "C-VMEM",
            "stable powers and 1-x trade vertex membership in both directions",
            _run_vertex_membership,
        ),
        ClaimDef(
            "C-ADJ17",
            "a stable power x^n and 1-x are adjacent at level 1",
            _run_stable_adjacency,
        ),
        ClaimDef(
            "C-DESC",
            "adjacency of x^n y to y at level 1 descends to every smaller power",
            _run_power_descent,
        ),
        ClaimDef(
            "C-IDEM",
            "adjacency of x y to an idempotent y descends to level 1",
            _run_idempotent_descent,
        ),
        ClaimDef(
            "C-BIP",
            "with two maximal ideals, complete bipartiteness off the radical is equivalent to totally ordered power ideals",
            _run_bipartite,
        ),
        ClaimDef(
            "C-ZDGC",
            "a complete cozero level forces a complete zero-divisor level",
            _run_zero_divisor_completeness,
        ),
        ClaimDef(
            "C-SEMI",
            "a semiprime ideal with matching vertex sets never yields a complete zero-divisor level",
            _run_semiprime_incompleteness,
        ),
    ]
}

CLAIM_ORDER = list(CATALOG)


def _evaluate(instance: ClaimInstance, pairs: dict) -> ClaimReport:
    """Evaluate one instance; ``pairs`` maps (ring, ideal) names to those that resolved."""
    start = time.perf_counter()
    claim = CATALOG.get(instance.claim)
    if claim is None:
        raise ValueError(f"unknown claim id {instance.claim!r}")
    key = (instance.ring, instance.ideal)
    if key not in pairs:
        ring = build_ring(instance.ring)
        pairs[key] = ring, span_from_labels(ring, instance.ideal)
    resolved = _Resolved(instance, *pairs[key])
    if _standing_ok(resolved):
        status, witness, detail = claim.runner(resolved)
    else:
        status, witness, detail = VACUOUS, None, "ideal is maximal or improper"
    elapsed = time.perf_counter() - start
    return ClaimReport(instance, status, witness, detail, elapsed)


def run_claim(instance: ClaimInstance) -> ClaimReport:
    """Evaluate one claim instance; outside the standing assumption it is VACUOUS."""
    return _evaluate(instance, {})


class SuiteResult:
    def __init__(self, reports: list[ClaimReport], summary: dict[str, dict[str, int]],
                 mismatches: Optional[list[ClaimReport]] = None):
        self.reports, self.summary = reports, summary
        self.mismatches = [] if mismatches is None else mismatches

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _is_mismatch(report: ClaimReport) -> bool:
    expected = report.instance.expected
    if expected == VERIFIED and report.status == REFUTED:
        return True
    if expected == REFUTED and report.status == VERIFIED:
        return True
    return False


def run_suite(instances: list[ClaimInstance], workers: Optional[int] = None) -> SuiteResult:
    """Run all instances in order, as ``run_claim`` would one at a time.

    Each distinct (ring, ideal) pair is resolved once, at the first instance
    naming it, whose ``elapsed`` includes that; a malformed name raises there.
    ``workers`` is accepted for compatibility and ignored: the runners are
    bound by the interpreter lock, so threads would not speed them up.
    """
    pairs: dict[tuple[str, str], tuple[Ring, IdealSet]] = {}
    reports = [_evaluate(inst, pairs) for inst in instances]
    summary: dict[str, dict[str, int]] = {}
    for rep in reports:
        per = summary.setdefault(rep.instance.claim, {})
        per[rep.status] = per.get(rep.status, 0) + 1
    mismatches = [rep for rep in reports if _is_mismatch(rep)]
    return SuiteResult(reports, summary, mismatches)


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for string-keyed dicts, byte for byte.

    ``json.dumps`` runs its pure-Python encoder whenever ``indent`` is set;
    this one pass hands only bools and floats (and unknown types) to it.
    """
    if type(value) is str:
        return _json_str(value)
    if value is None:
        return "null"
    if type(value) is int:
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items, brackets = [_json_text(item, inner) for item in value], "[]"
    elif isinstance(value, dict):
        items = [_json_str(k) + ": " + _json_text(value[k], inner) for k in sorted(value)]
        brackets = "{}"
    else:
        return json.dumps(value)
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def suite_to_json(result: SuiteResult) -> str:
    """The suite as ``json.dumps(indent=2, sort_keys=True)`` writes it, byte for byte.

    Each report is written by its fixed shape, its eight keys in sorted order.
    Only the params, rendered once per distinct ``repr`` (which tells ``1``
    from ``True``), and the witness go through ``_json_text``.
    """
    nl, params_text, texts = "\n      ", {}, []
    for rep in result.reports:
        inst = rep.instance
        params = params_text.get(key := repr(inst.params))
        if params is None:
            params = params_text[key] = _json_text(dict(inst.params), nl)
        expected = "null" if inst.expected is None else _json_str(inst.expected)
        texts.append(
            f'{{{nl}"claim": {_json_str(inst.claim)},{nl}"detail": {_json_str(rep.detail)},'
            f'{nl}"expected": {expected},{nl}"ideal": {_json_str(inst.ideal)},'
            f'{nl}"params": {params},{nl}"ring": {_json_str(inst.ring)},'
            f'{nl}"status": {_json_str(rep.status)},'
            f'{nl}"witness": {_json_text(rep.witness, nl)}\n    }}'
        )
    reports = "[\n    " + ",\n    ".join(texts) + "\n  ]" if texts else "[]"
    summary = _json_text(result.summary, "\n  ")
    return (f'{{\n  "mismatches": {len(result.mismatches)},\n  "reports": {reports},'
            f'\n  "summary": {summary}\n}}\n')


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

GRID_RINGS = [
    "Z2", "Z4", "Z8", "Z16",
    "Z3", "Z9", "Z27", "Z81",
    "Z5", "Z25", "Z125", "Z625",
    "Z6", "Z12", "Z18", "Z20", "Z24", "Z36", "Z50",
    "Z2[x,y]/(x^3,y^2)", "Z4[x]/(x^2)",
    "Z4xZ9", "Z2xZ2",
]

PNQ_RINGS = ["Z12", "Z24", "Z18", "Z20", "Z50"]

LEVELS = [1, 2, 3, "ext"]


def grid_ideals(ring_name: str) -> list[str]:
    """The ideal axis for one ring: 0, the radical, one non-radical principal."""
    ring = build_ring(ring_name)
    out = ["0"]
    seen = {1}
    jac = jacobson_radical(ring)
    if jac.bits not in seen:
        out.append(",".join(jac.generator_labels()))
        seen.add(jac.bits)
    for g in range(1, ring.size):
        ideal = span(ring, (g,))
        if ideal.bits in seen or not ideal.is_proper():
            continue
        if not is_semiprime(ideal):
            out.append(ring.label(g))
            seen.add(ideal.bits)
            break
    return out


def _expected_for(claim_id: str, ring_name: str, ideal_label: str) -> str:
    if claim_id == "C-SEMI" and ring_name == "Z2xZ2" and ideal_label == "0":
        # the zero-divisor level of Z2xZ2 is the complete graph on the two
        # nontrivial idempotents even though the zero ideal is semiprime
        return REFUTED
    return CATALOG[claim_id].default_expected


def default_grid() -> list[ClaimInstance]:
    """The built-in verification grid; fully deterministic."""
    instances: list[ClaimInstance] = []
    ideals_by_ring = {name: grid_ideals(name) for name in GRID_RINGS}
    rings = {name: build_ring(name) for name in GRID_RINGS}

    def add(claim, ring_name, ideal_label, **params):
        instances.append(
            ClaimInstance(
                claim=claim,
                ring=ring_name,
                ideal=ideal_label,
                params=tuple(sorted(params.items())),
                expected=_expected_for(claim, ring_name, ideal_label),
            )
        )

    for name in [name for name, ring in rings.items() if _is_zpn(ring)]:
        for i in LEVELS:
            add("C-EMPTY", name, "0", i=i)
    for ring_name in PNQ_RINGS:
        p, n, q = analysis.zpnq_shape(rings[ring_name])
        add("C-GROW", ring_name, "0", p=p, q=q, n=n)
        add("C-TRI", ring_name, "0", p=p, q=q, n=n)
    for name in GRID_RINGS:
        for ideal_label in ideals_by_ring[name]:
            for i in LEVELS:
                add("C-PRIME", name, ideal_label, i=i)
                add("C-ZDGC", name, ideal_label, i=i)
                add("C-SEMI", name, ideal_label, i=i)
            for i in LEVELS:
                add("C-BIP", name, ideal_label, i=i)
            add("C-FILT", name, ideal_label)
            add("C-XI", name, ideal_label)
            add("C-CONIL", name, ideal_label)
            add("C-VMEM", name, ideal_label)
            add("C-ADJ17", name, ideal_label)
            add("C-DESC", name, ideal_label)
            add("C-IDEM", name, ideal_label)
    return instances


def load_grid(path: str) -> list[ClaimInstance]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"grid file is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ParseError("grid file must be a JSON array of instances")
    instances = []
    for d in data:
        if not isinstance(d, dict) or "claim" not in d or "ring" not in d:
            raise ParseError(f"grid entry {d!r} needs a 'claim' and a 'ring'")
        if not all(isinstance(d.get(key, ""), str) for key in ("claim", "ring", "ideal")):
            raise ParseError(f"grid entry {d!r} needs 'claim', 'ring' and 'ideal' strings")
        if d["claim"] not in CATALOG:
            raise ParseError(f"unknown claim id {d['claim']!r}")
        if d.get("expected") not in (None, VERIFIED, REFUTED, VACUOUS, UNSUPPORTED):
            raise ParseError(f"grid entry {d!r} has an unknown expected status")
        params = d.get("params") or {}
        if not isinstance(params, dict) or not all(
            v in ("ext", EXTENDED) or (type(v) is int and v >= 1) for v in params.values()
        ):
            raise ParseError(f"grid entry {d!r} needs params that are levels or integers >= 1")
        instances.append(ClaimInstance.from_dict(d))
    return instances


def dump_grid(instances: list[ClaimInstance]) -> str:
    return _json_text([i.as_dict() for i in instances]) + "\n"


# ---------------------------------------------------------------------------
# Witness replay
# ---------------------------------------------------------------------------

def replay_witness(report: ClaimReport) -> bool:
    """Re-check a report's witness through the public graph operations.

    Unknown witness kinds do not replay.
    """
    w = report.witness
    if w is None:
        return True
    ring = build_ring(report.instance.ring)
    J = span_from_labels(ring, report.instance.ideal)
    kind = w.get("graph", COZERO)
    level = w.get("level")
    wkind = w.get("kind")
    if wkind == "edge":
        x, y = ring.parse_label(w["x"]), ring.parse_label(w["y"])
        ok = adjacent(ring, J, x, y, level, kind)
        if "absent_at_level" in w:
            ok = ok and not adjacent(ring, J, x, y, w["absent_at_level"], kind)
        return ok
    if wkind in ("non_edge", "partition_pair"):
        x, y = ring.parse_label(w["x"]), ring.parse_label(w["y"])
        edge = adjacent(ring, J, x, y, level, kind)
        if wkind == "non_edge":
            return not edge
        part_of = {lbl: k for k, part in enumerate(w["parts"]) for lbl in part}
        same = part_of.get(w["x"]) == part_of.get(w["y"])
        if w.get("reason") == "edge inside a part":
            return edge and same
        return not edge and not same
    if wkind == "complete_graph":
        g = build_level(ring, J, level, kind)
        return is_complete(g) and [ring.label(v) for v in g.vertices] == w["vertices"]
    if wkind == "partition":
        g = build_level(ring, J, level, kind)
        parts = PartitionWitness(
            tuple(tuple(ring.parse_label(v) for v in part) for part in w["parts"])
        )
        try:
            return check_partition_claim(g, parts).holds
        except analysis.InvalidPartition:
            return False
    if wkind == "graphs_equal":
        lo, hi = w["levels"]
        return analysis.graph_equals(
            build_level(ring, J, lo, kind), build_level(ring, J, hi, kind)
        )
    if wkind == "arity":
        try:
            parts = zpnq_parts(ring)
        except analysis.NotZpnqForm:
            return False
        labels = [[ring.label(v) for v in part] for part in parts.parts]
        return parts.arity == w["arity"] != 3 and labels == w["parts"]
    if wkind == "element":
        return _replay_element(ring, J, w)
    return False


def _replay_element(ring: Ring, J: IdealSet, w: dict) -> bool:
    """Re-check an element witness: its hypotheses, and the failed condition."""
    x, n = ring.parse_label(w["x"]), w["n"]
    if n < 1:
        return False
    condition = w.get("condition")
    if condition is None:
        # C-XI: the ring index is even and attained at x
        xi = ring_conilpotency_index(ring, J)
        return n % 2 == 0 and conilpotency_record(ring, J, x).index == n == xi
    xn, one_minus = ring.pow(x, n), ring.sub(ring.one, x)
    vbits = level_context(ring, J).vertex_bits()
    jac = jacobson_radical(ring)
    if condition == "x^n not a vertex despite 1-x being one":
        return bool(
            J.issubset(jac)
            and not ring.is_unit(x)
            and vbits >> one_minus & 1
            and not vbits >> xn & 1
        )
    if xn != ring.pow(x, n + 1):
        return False
    if condition == "1-x not a vertex despite stable vertex power":
        return bool(vbits >> xn & 1 and not vbits >> one_minus & 1)
    # the remaining conditions belong to C-CONIL and C-ADJ17
    if not J.issubset(jac) or ring.is_unit(x) or jac.contains(x):
        return False
    if condition == "1-x inside x^n R + J":
        return principal_plus(x, n, J).contains(one_minus)
    if condition == "x^n inside R(1-x) + J":
        return ideal_sum(J, (one_minus,)).contains(xn)
    if w.get("pair") != [ring.label(xn), ring.label(one_minus)]:
        return False
    if condition == "x^n equals 1-x":
        return xn == one_minus
    pair_in = bool(vbits >> xn & 1 and vbits >> one_minus & 1)
    if condition == "pair not inside the vertex set":
        return xn != one_minus and not pair_in
    if condition == "pair not adjacent at level 1":
        return (
            xn != one_minus
            and pair_in
            and not adjacent(ring, J, xn, one_minus, 1)
        )
    return False
