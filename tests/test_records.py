"""The behaviour of the package's small records: fields, characters, groups,
spectra and the srg and design parameters. Equality and hashing are by value
within one class, frozen records refuse assignment, checks run when a record
is made, and default containers are fresh per instance."""

import pytest

from specgraph import bounds as bd
from specgraph import characters as ch
from specgraph import finite_field as ff
from specgraph import graph_core as gc
from specgraph import graph_families as gf
from specgraph import groups
from specgraph import spectra as sp
from specgraph.errors import IdentityViolated


def _copy_of(spec):
    """A second FieldSpec with spec's field values, not the cached one."""
    return ff.FieldSpec(spec.p, spec.d, spec.modulus, spec.q)


def test_field_spec_element_and_group_are_equal_and_hash_equal_by_value():
    spec = ff.field(9)
    twin = _copy_of(spec)
    assert twin is not spec
    assert twin == spec and not twin != spec
    assert hash(twin) == hash(spec) == hash((spec.p, spec.d, spec.modulus, spec.q))
    assert twin != ff.field(27)

    a, b = ff.FieldElement(spec, 4), ff.FieldElement(twin, 4)
    assert a == b and hash(a) == hash(b) == hash((spec, 4))
    assert a != ff.FieldElement(spec, 5)
    assert len({a, b, spec.element(4)}) == 1

    g, h = groups.Group((8,), (2, 6)), groups.Group((8,), (2, 6), False)
    assert g == h and hash(g) == hash(h) == hash(((8,), (2, 6), False))
    assert g != groups.Group((8,), (2, 6), bi=True)


def test_characters_and_spectra_compare_by_value():
    spec = ff.field(7)
    assert ch.AdditiveCharacter(spec, spec.one) == ch.AdditiveCharacter(_copy_of(spec), spec.one)
    assert ch.AdditiveCharacter(spec, spec.one) != ch.AdditiveCharacter(spec, spec.zero)
    assert ch.MultiplicativeCharacter(spec, 2) == ch.MultiplicativeCharacter(spec, 8)
    assert sp.spectrum(gf.cycle(5)) == sp.spectrum(gf.cycle(5))


def test_a_record_never_equals_another_class_with_the_same_values():
    srg, partial = gf.SrgParams(10, 3, 0, 1), gf.PartialDesignParams(10, 3, 0, 1)
    assert srg != partial and partial != srg
    assert not srg == partial
    assert gf.DesignParams(7, 3, 1) != (7, 3, 1)
    spec = ff.field(5)
    assert ff.FieldElement(spec, 1) != 1
    assert ch.MultiplicativeCharacter(spec, 1) != ch.AdditiveCharacter(spec, spec.one)


def _frozen_records():
    """One instance of each frozen record, with the name of its first field."""
    spec = ff.field(9)
    return [
        (spec, "p"),
        (spec.element(3), "spec"),
        (ff.subfield_embedding(spec, ff.field(3)), "big"),
        (ch.AdditiveCharacter(spec, spec.one), "spec"),
        (ch.MultiplicativeCharacter(spec, 1), "spec"),
        (groups.Group((8,), (2, 6)), "orders"),
        (sp.spectrum(gf.cycle(4)), "entries"),
        (sp.closed_form_spectrum("cycle", 4), "matrix_kind"),
        (gf.SrgParams(10, 3, 0, 1), "n"),
        (gf.DesignParams(7, 3, 1), "m"),
        (gf.PartialDesignParams(6, 3, 1, 2), "m"),
        (bd.MixingQuery(frozenset({0}), frozenset({1})), "S"),
        (gc.small_graph_classes(2), "canon_of_code"),
    ]


@pytest.mark.parametrize("record, name", _frozen_records(),
                         ids=lambda v: type(v).__name__ if not isinstance(v, str) else v)
def test_frozen_records_refuse_assignment_and_deletion(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert getattr(record, name) is before


def test_multiplicative_character_normalises_its_exponent():
    spec = ff.field(11)
    assert ch.MultiplicativeCharacter(spec, -1).exponent == 9
    assert ch.MultiplicativeCharacter(spec, 23).exponent == 3
    assert ch.MultiplicativeCharacter(spec, 7).conjugate().exponent == 3


def test_parameter_checks_run_at_construction_with_their_messages():
    with pytest.raises(IdentityViolated) as exc:
        gf.SrgParams(5, 2, 0, 2)
    assert str(exc.value) == "srg identity fails for SrgParams(n=5, d=2, a=0, c=2)"
    with pytest.raises(IdentityViolated) as exc:
        gf.DesignParams(3, 2, 2)
    assert str(exc.value) == "DesignParams(m=3, d=2, c=2) fails 0 <= c <= d or c(m - 1) = d(d - 1)"
    with pytest.raises(IdentityViolated) as exc:
        gf.PartialDesignParams(6, 3, 2, 2)
    assert str(exc.value) == "partial design needs two distinct counts"
    with pytest.raises(IdentityViolated) as exc:
        gf.c1_graph_degree(gf.PartialDesignParams(6, 3, 0, 4), 0)
    assert str(exc.value) == ("0-graph degree -14/-4 of PartialDesignParams(m=6, d=3, c1=0, c2=4) "
                              "is not an integer")
    with pytest.raises(ff.SpecMismatch, match="twist must live in the character's field"):
        ch.AdditiveCharacter(ff.field(5), ff.field(7).one)


def test_keywords_and_defaults_are_kept():
    assert groups.Group(orders=(3,), subset=(1, 2)).bi is False
    assert bd.MixingQuery(S=frozenset({0}), T=frozenset({1})).ell == 1
    assert gf.SrgParams(n=10, d=3, a=0, c=1) == gf.SrgParams(10, 3, 0, 1)
    rec = bd.BoundRecord("b", "lhs <= rhs", 1.0, 2.0, 1.0, "pass")
    assert (rec.note, rec.inputs) == ("", {})


def test_default_containers_are_fresh_per_instance():
    first = bd.BoundRecord("b", "", None, None, None, "skipped")
    second = bd.BoundRecord("b", "", None, None, None, "skipped")
    first.inputs["x"] = 1
    assert second.inputs == {}

    one, two = bd.AuditReport("g"), bd.AuditReport("h")
    one.records.append(first)
    assert two.records == []

    g = gf.cycle(5)
    left = gc.InvariantReport(g, 2, 5, 3, 2, 2, None, None)
    right = gc.InvariantReport(g, 2, 5, 3, 2, 2, None, None)
    left.skipped.append("isoperimetric")
    assert right.skipped == []


def test_audit_report_to_json_gives_each_record_as_a_dict():
    records = [
        bd.BoundRecord("wilf_chromatic", "lhs <= rhs", 3.0, 3.0, 0.0, "pass", "",
                       {"chi": 3, "alpha_max": 2.0}),
        bd.BoundRecord("brooks", "lhs <= rhs", 3.0, 2.0, -1.0, "fail", "strict", {"chi": 3}),
        bd.BoundRecord("hoffman", "", None, None, None, "skipped", "needs an edge"),
    ]
    report = bd.AuditReport("C5", records)
    out = report.to_json()
    assert out == {
        "graph": "C5",
        "passed": 1,
        "failed": 1,
        "skipped": 1,
        "records": [
            {"name": "wilf_chromatic", "relation": "lhs <= rhs", "lhs": 3.0, "rhs": 3.0,
             "slack": 0.0, "status": "pass", "note": "", "inputs": {"chi": 3, "alpha_max": 2.0}},
            {"name": "brooks", "relation": "lhs <= rhs", "lhs": 3.0, "rhs": 2.0, "slack": -1.0,
             "status": "fail", "note": "strict", "inputs": {"chi": 3}},
            {"name": "hoffman", "relation": "", "lhs": None, "rhs": None, "slack": None,
             "status": "skipped", "note": "needs an edge", "inputs": {}},
        ],
    }
    assert [list(r) for r in out["records"]] == [
        ["name", "relation", "lhs", "rhs", "slack", "status", "note", "inputs"]] * 3
    out["records"][0]["inputs"]["chi"] = 4
    assert records[0].inputs["chi"] == 3
