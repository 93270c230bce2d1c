import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import parse_dot
from scpl.errors import (DuplicateNameError, FormatSyntaxError,
                         InvalidInputError, UnknownReferenceError)
from scpl.formats import (export_dot, parse_configuration, parse_product_line,
                          serialize_configuration, serialize_product_line)
from scpl.model import (AndState, Condition, Guard, InState, OrState,
                        SimpleState, StateChart, Transition, Violation,
                        check_well_formed)
from scpl.strategy import generate_random_product_line, instantiate

MINIMAL = """
{
  "feature_model": {"funcs": ["R"], "root": "R"},
  "statechart": {"root": {"kind": "or", "name": "Top", "initial": "A",
                          "substates": [{"kind": "simple", "name": "A"}],
                          "transitions": []}},
  "imp": {}
}
"""


def test_minimal_document_round_trips():
    fm, sc, imp = parse_product_line(MINIMAL)
    text = serialize_product_line(fm, sc, imp)
    assert parse_product_line(text) == (fm, sc, imp)
    assert serialize_product_line(*parse_product_line(text)) == text


def test_bundled_dataset_round_trips(mp):
    fm, sc, imp = mp
    text = serialize_product_line(fm, sc, imp)
    assert parse_product_line(text) == (fm, sc, imp)


def test_syntax_error_carries_position():
    with pytest.raises(FormatSyntaxError) as err:
        parse_product_line("{ not json")
    assert err.value.line == 1
    assert "line 1" in err.value.message


def test_unknown_transition_endpoint_is_reported():
    doc = json.loads(MINIMAL)
    doc["statechart"]["root"]["transitions"] = [
        {"name": "t", "source": "A", "target": "Ghost", "trigger": ["e"]}]
    with pytest.raises(UnknownReferenceError) as err:
        parse_product_line(json.dumps(doc))
    assert "Ghost" in err.value.message


def test_unknown_imp_element_is_reported():
    doc = json.loads(MINIMAL)
    doc["imp"] = {"F": {"elements": ["Ghost"]}}
    with pytest.raises(UnknownReferenceError):
        parse_product_line(json.dumps(doc))


def test_duplicate_state_name_is_reported():
    doc = json.loads(MINIMAL)
    doc["statechart"]["root"]["substates"].append(
        {"kind": "simple", "name": "A"})
    with pytest.raises(DuplicateNameError):
        parse_product_line(json.dumps(doc))


def test_dotted_paths_resolve_against_hierarchy():
    doc = json.loads(MINIMAL)
    doc["statechart"]["root"]["substates"].append({
        "kind": "or", "name": "B", "initial": "C",
        "substates": [{"kind": "simple", "name": "C"}], "transitions": []})
    doc["statechart"]["root"]["transitions"] = [
        {"name": "t", "source": "A", "target": "Top.B.C", "trigger": ["e"]}]
    fm, sc, imp = parse_product_line(json.dumps(doc))
    assert sc.root.transitions[0].target == "C"


def test_dotted_paths_resolve_in_initials_atoms_and_nested_transitions():
    doc = json.loads(MINIMAL)
    root = doc["statechart"]["root"]
    root["substates"].append({
        "kind": "or", "name": "B", "initial": "B.C",
        "substates": [{"kind": "simple", "name": "C"},
                      {"kind": "simple", "name": "D"}],
        "transitions": [{"name": "u", "source": "Top.B.C", "target": "B.D",
                         "trigger": ["e"]}]})
    root["transitions"] = [{"name": "t", "source": "A", "target": "B",
                            "trigger": ["e"],
                            "cond": [{"in": "Top.B.D"}, {"guard": "g"}]}]
    fm, sc, imp = parse_product_line(json.dumps(doc))
    inner = sc.root.substates[1]
    assert inner.initial == "C"
    assert sc.root.transitions[0].cond == Condition((InState("D"),
                                                     Guard("g")))
    assert (inner.transitions[0].source, inner.transitions[0].target) == (
        "C", "D")
    assert check_well_formed(sc) == []


def test_dotted_path_must_follow_hierarchy():
    doc = json.loads(MINIMAL)
    doc["statechart"]["root"]["transitions"] = [
        {"name": "t", "source": "A", "target": "Top.Ghost", "trigger": ["e"]}]
    with pytest.raises(UnknownReferenceError):
        parse_product_line(json.dumps(doc))


def test_bad_condition_atom_is_syntax_error():
    doc = json.loads(MINIMAL)
    doc["statechart"]["root"]["transitions"] = [
        {"name": "t", "source": "A", "target": "A", "trigger": ["e"],
         "cond": [{"frobnicate": "x"}]}]
    with pytest.raises(FormatSyntaxError):
        parse_product_line(json.dumps(doc))


def test_configuration_round_trip(mp_no_poly):
    text = serialize_configuration(mp_no_poly)
    assert parse_configuration(text) == mp_no_poly
    assert serialize_configuration(parse_configuration(text)) == text


def test_golden_configuration_contents(mp_no_poly):
    assert mp_no_poly.selected == frozenset({
        "MP", "Display", "Contacts", "MessagesAdm", "Multimedia", "Images",
        "Videos", "Quick-Marking", "Ringer_in_functions"})
    assert ("Multimedia", frozenset({"Images"})) in mp_no_poly.edges
    assert ("Multimedia", frozenset({"Videos"})) in mp_no_poly.edges


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_random_artifacts_round_trip(seed):
    line = generate_random_product_line(seed)
    text = serialize_product_line(line.fm, line.sc, line.imp)
    assert parse_product_line(text) == (line.fm, line.sc, line.imp)
    assert serialize_product_line(*parse_product_line(text)) == text
    conf_text = serialize_configuration(line.conf)
    assert parse_configuration(conf_text) == line.conf


def test_export_dot_single_state_machine():
    fm, sc, imp = parse_product_line(MINIMAL)
    g = parse_dot(export_dot(sc))
    assert "A" in g.nodes
    assert "cluster_Top" in g.clusters


def test_export_dot_styles_and_structure(mp):
    fm, sc, imp = mp
    text = export_dot(sc)
    g = parse_dot(text)
    assert g.nodes["MessagesState"]["style"] == "dashed"
    assert g.nodes["MainDisplay"]["style"] == "solid"
    assert "cluster_Multimedia" in g.clusters
    edges = {(a, b) for a, b, _ in g.edges}
    # Initial markers: one point node edge per Or-state.
    assert any(a.startswith("__initial_") for a, b in edges)
    labels = [attrs.get("label", "") for _, _, attrs in g.edges]
    assert any("TStopAlert-IncomingMess-MainDisplay" in l for l in labels)
    assert any("in MessagesState" in l for l in labels)


def test_export_dot_escapes_names_ending_in_a_backslash():
    # valid_name accepts a backslash, so a quoted name may end in one.
    root = OrState("Top", (SimpleState("A"), SimpleState("B\\")), "A",
                   (Transition("t", "A", "B\\", ("e",), actions=("log\\",)),))
    sc = StateChart(root)
    assert check_well_formed(sc) == []
    g = parse_dot(export_dot(sc))
    assert g.nodes["B\\"] == {"style": "solid"}
    assert [(a, b, attrs["label"]) for a, b, attrs in g.edges
            if a == "A"] == [("A", "B\\", "t: e / log\\")]


@pytest.mark.parametrize("root, violation", [
    (OrState("R", (SimpleState("A"),), "B"),
     Violation("R", "initial 'B' is not a direct substate")),
    (OrState("R", (AndState("P", ()),), "P"),
     Violation("P", "And-state has fewer than 2 regions")),
], ids=["initial-not-a-substate", "and-state-without-regions"])
def test_export_dot_refuses_a_composite_it_cannot_descend(root, violation):
    with pytest.raises(InvalidInputError) as caught:
        export_dot(StateChart(root))
    assert caught.value.violations == (violation,)


def test_export_dot_is_deterministic(mp):
    fm, sc, imp = mp
    assert export_dot(sc) == export_dot(sc)


def test_instantiated_product_has_no_dashed_elements(mp, mp_no_poly):
    fm, sc, imp = mp
    product = instantiate(fm, mp_no_poly, sc, imp).statechart
    text = export_dot(product)
    parse_dot(text)
    assert "dashed" not in text
