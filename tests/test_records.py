"""Value semantics of the package's records and immutable objects.

Descriptors and result records are NamedTuples: equal fields make equal,
equally hashed values. ``IdealSet`` and ``GraphLevel`` are slotted classes;
they, like the records, refuse every assignment.
"""

import pytest

from ringgraphs import claims
from ringgraphs.analysis import check_partition_claim, zpnq_parts
from ringgraphs.claims import (
    CATALOG,
    ClaimInstance,
    ClaimReport,
    SuiteResult,
    default_grid,
    run_suite,
    suite_to_json,
)
from ringgraphs.conilpotency import conilpotency_record
from ringgraphs.graphs import EXTENDED, PowerTrajectory, build_level, power_trajectory
from ringgraphs.graphs import stabilization_bound
from ringgraphs.ideals import span_from_labels, zero_ideal
from ringgraphs.rings import ModularRing, PolyQuotientRing, ProductRing, build_ring, parse_ring


def test_equal_descriptors_are_equal_and_hash_alike():
    product = ProductRing((ModularRing(4), ModularRing(9)))
    assert parse_ring("Z4xZ9") == product and hash(parse_ring("Z4xZ9")) == hash(product)
    poly = parse_ring("Z2[x,y]/(x^3,y^2)")
    assert poly == PolyQuotientRing(2, ("x", "y"), (3, 2))
    assert hash(poly) == hash(parse_ring("z2[x, y]/(x^3, y^2)"))
    assert parse_ring("Z3[t]/(t^2+1)").modulus_coeffs == (1, 0, 1)
    assert ModularRing(6) == (6,) and ModularRing(6) != ModularRing(7)
    assert build_ring("Z6") is build_ring("Z6") is build_ring(ModularRing(6))


def test_claim_instance_is_a_dict_key():
    inst = ClaimInstance("C-EMPTY", "Z27", params=(("i", 4),), expected="VERIFIED")
    table = {inst: "found"}
    assert table[ClaimInstance.from_dict(inst.as_dict())] == "found"
    assert ClaimInstance("C-EMPTY", "Z27", params=(("i", 3),)) not in table
    assert len({i: None for i in default_grid()}) == len(default_grid())


FROZEN = [
    "ModularRing", "ProductRing", "PolyQuotientRing", "ClaimInstance", "ClaimDef",
    "ConilpotencyRecord", "PartitionWitness", "PartitionVerdict", "PowerTrajectory",
    "IdealSet", "GraphLevel",
]


def _records():
    """One instance of each immutable type, by type name, with one of its fields."""
    ring = build_ring("Z12")
    J = zero_ideal(ring)
    g = build_level(ring, J, 2)
    parts = zpnq_parts(ring)
    records = [
        (ModularRing(12), "modulus"),
        (ProductRing((ModularRing(2), ModularRing(3))), "factors"),
        (parse_ring("Z3[t]/(t^2+1)"), "modulus_coeffs"),
        (ClaimInstance("C-EMPTY", "Z27"), "ideal"),
        (CATALOG["C-EMPTY"], "runner"),
        (conilpotency_record(ring, J, 3), "index"),
        (parts, "parts"),
        (check_partition_claim(g, parts), "holds"),
        (power_trajectory(ring, J, 2), "powers"),
        (span_from_labels(ring, "2"), "bits"),
        (g, "rows"),
    ]
    return {type(obj).__name__: (obj, field) for obj, field in records}


@pytest.mark.parametrize("kind", FROZEN)
def test_fields_cannot_be_assigned(kind):
    obj, name = _records()[kind]
    value = getattr(obj, name)
    with pytest.raises(AttributeError):
        setattr(obj, name, value)
    with pytest.raises(AttributeError):
        obj.unknown_field = 1
    assert getattr(obj, name) is value


def test_identity_objects_refuse_deletion():
    ring = build_ring("Z12")
    J = zero_ideal(ring)
    for obj, name in ((J, "ring"), (build_level(ring, J, 1), "kind")):
        with pytest.raises(AttributeError):
            delattr(obj, name)


def test_power_trajectory_equality_ignores_powers():
    ring = build_ring("Z12")
    t = power_trajectory(ring, zero_ideal(ring), 2)
    other = PowerTrajectory(t.ideals, tuple(p + 1 for p in t.powers))
    assert t == other and not t != other and hash(t) == hash(other)
    assert t != PowerTrajectory(t.ideals[:1], t.powers[:1])
    assert t != tuple(t)


def test_extended_level_shares_the_concrete_rows():
    ring = build_ring("Z60")
    J = span_from_labels(ring, "30")
    ext = build_level(ring, J, EXTENDED)
    concrete = build_level(ring, J, stabilization_bound(ring, J))
    assert ext is not concrete and ext.requested_extended and not concrete.requested_extended
    assert ext.rows is concrete.rows and ext.vertices is concrete.vertices
    assert (ext.ring, ext.ideal, ext.kind, ext.level) == (
        concrete.ring, concrete.ideal, concrete.kind, concrete.level
    )
    assert "i=extended" in repr(ext) and f"i={concrete.level}" in repr(concrete)


def test_claim_report_and_suite_result_signatures():
    inst = ClaimInstance("C-EMPTY", "Z27")
    rep = ClaimReport(inst, "VERIFIED")
    assert (rep.witness, rep.detail, rep.elapsed) == (None, "", 0.0)
    rep = ClaimReport(instance=inst, status="REFUTED", witness={}, detail="d", elapsed=1.5)
    assert (rep.instance, rep.status, rep.witness, rep.detail, rep.elapsed) == (
        inst, "REFUTED", {}, "d", 1.5
    )
    first, second = SuiteResult([rep], {}), SuiteResult([], {})
    assert first.mismatches == [] and first.mismatches is not second.mismatches
    assert first.ok and not SuiteResult([rep], {}, mismatches=[rep]).ok


def test_no_record_reaches_the_report_encoder(monkeypatch):
    # _json_text writes any tuple, a NamedTuple record included, as an array,
    # so a record that reached a report would be written without complaint
    encoder = claims._json_text
    seen = set()

    def spy(value, indent="\n"):
        seen.add(type(value))
        return encoder(value, indent)

    monkeypatch.setattr(claims, "_json_text", spy)
    suite_to_json(run_suite(default_grid()))
    assert {dict, list, str} <= seen
    assert not [t for t in seen if issubclass(t, tuple) and t is not tuple]
