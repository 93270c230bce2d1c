import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import parse_dot
from scpl.errors import (DuplicateNameError, FormatSyntaxError,
                         InvalidInputError, UnknownReferenceError)
from scpl.formats import (export_dot, parse_configuration, parse_product_line,
                          serialize_configuration, serialize_product_line)
from scpl.model import (AndState, Condition, Guard, History, InState,
                        OrState, SimpleState, StateChart, Transition,
                        Violation, check_well_formed)
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


def _set(path, value):
    """An edit of the MINIMAL document: ``value`` stored at the key path."""
    def edit(doc):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        doc[last] = value
    return edit


def _drop_statechart(doc):
    del doc["statechart"]


def _configuration(conf):
    """Not an edit: ``conf`` read as a configuration document instead."""
    def edit(doc):
        return parse_configuration, conf
    return edit


_ROOT = ("statechart", "root")
_LOOP = {"name": "t", "source": "A", "target": "A", "trigger": ["e"]}
_T0 = "$.statechart.root.transitions[0]"


@pytest.mark.parametrize("edit, error, message", [
    (_set(("feature_model",), []), FormatSyntaxError,
     "$.feature_model: expected dict, got list"),
    (_set(("feature_model", "mand"), [["R"]]), FormatSyntaxError,
     "$.feature_model.mand[0]: expected [parent, children]"),
    (_set(("feature_model", "funcs"), ["R", "F", "F"]), DuplicateNameError,
     "duplicate feature(s): F"),
    (_set((*_ROOT, "transitions"), [_LOOP, _LOOP]), DuplicateNameError,
     "duplicate transition name(s): t"),
    (_set((*_ROOT, "transitions"), [{**_LOOP, "history": "full"}]),
     FormatSyntaxError,
     "$.statechart.root.transitions[0].history: unknown value 'full'"),
    (_set((*_ROOT, "substates"), [{"kind": "blob", "name": "A"}]),
     FormatSyntaxError,
     "$.statechart.root.substates[0].kind: expected simple/or/and, "
     "got 'blob'"),
    (_drop_statechart, FormatSyntaxError, "$.statechart: missing"),
    (_set(_ROOT, {"kind": "simple", "name": "A"}), FormatSyntaxError,
     "$.statechart.root: root must be an Or-state"),
    (_set(_ROOT, {"kind": "or", "name": "R", "initial": "Q.A",
                  "substates": [{"kind": "simple", "name": "A"}]}),
     UnknownReferenceError,
     "initial of 'R': unknown state 'Q' in path 'Q.A'"),
    (_set((*_ROOT, "transitions"), [{**_LOOP, "history": ["deep"]}]),
     FormatSyntaxError, f"{_T0}.history: unknown value ['deep']"),
    (_set((*_ROOT, "transitions"), [{**_LOOP, "name": 7}]),
     FormatSyntaxError, f"{_T0}.name: expected str, got int"),
    (_set((*_ROOT, "transitions"), [{**_LOOP, "trigger": ["e", 1, 2]}]),
     FormatSyntaxError, f"{_T0}.trigger[1]: expected str, got int"),
    (_set((*_ROOT, "substates"),
          [{"kind": "simple", "name": "A", "optional": "yes"}]),
     FormatSyntaxError,
     "$.statechart.root.substates[0].optional: expected bool, got str"),
    (_set((*_ROOT, "transitions"), [{**_LOOP, "optional": 1}]),
     FormatSyntaxError, f"{_T0}.optional: expected bool, got int"),
    (_set((*_ROOT, "substates"), {"kind": "simple", "name": "A"}),
     FormatSyntaxError,
     "$.statechart.root.substates: expected list, got dict"),
    (_set((*_ROOT, "transitions"), [{**_LOOP, "cond": None}]),
     FormatSyntaxError, f"{_T0}.cond: expected list, got NoneType"),
    (_set((*_ROOT, "transitions"), [{**_LOOP, "actions": "x"}]),
     FormatSyntaxError, f"{_T0}.actions: expected list, got str"),
    (_set(("imp",), {"R": {"elements": "A"}}), FormatSyntaxError,
     "$.imp.R.elements: expected list, got str"),
    (_configuration({"selected": ["R", None]}), FormatSyntaxError,
     "$.selected[1]: expected str, got NoneType"),
    (_set((*_ROOT, "transitions"), [{**_LOOP, "actions": None}]),
     FormatSyntaxError, f"{_T0}.actions: expected list, got NoneType"),
    (_set((*_ROOT, "transitions"), [{**_LOOP, "optional": 0}]),
     FormatSyntaxError, f"{_T0}.optional: expected bool, got int"),
    (_set((*_ROOT, "transitions"), [{**_LOOP, "optional": None}]),
     FormatSyntaxError, f"{_T0}.optional: expected bool, got NoneType"),
    (_set((*_ROOT, "substates"),
          [{"kind": "simple", "name": "A", "optional": None}]),
     FormatSyntaxError,
     "$.statechart.root.substates[0].optional: expected bool, got NoneType"),
    # When several fields are bad, the first in this order is named:
    # history, name, source, target, trigger, cond, actions, optional.
    (_set((*_ROOT, "transitions"),
          [{**_LOOP, "name": 1, "source": [], "target": None}]),
     FormatSyntaxError, f"{_T0}.name: expected str, got int"),
    (_set((*_ROOT, "transitions"), [{**_LOOP, "source": [], "target": 2}]),
     FormatSyntaxError, f"{_T0}.source: expected str, got list"),
    (_set((*_ROOT, "transitions"), [{**_LOOP, "name": 1, "history": 3}]),
     FormatSyntaxError, f"{_T0}.history: unknown value 3"),
    (_set((*_ROOT, "transitions"),
          [{**_LOOP, "trigger": "e", "cond": None, "optional": 0}]),
     FormatSyntaxError, f"{_T0}.trigger: expected list, got str"),
    (_set((*_ROOT, "transitions"),
          [{**_LOOP, "cond": None, "actions": None, "optional": 0}]),
     FormatSyntaxError, f"{_T0}.cond: expected list, got NoneType"),
    (_set((*_ROOT, "transitions"), [{**_LOOP, "actions": 1, "optional": 0}]),
     FormatSyntaxError, f"{_T0}.actions: expected list, got int"),
    (_set((*_ROOT, "substates"),
          [{"kind": "blob", "name": 5, "optional": "x"}]),
     FormatSyntaxError,
     "$.statechart.root.substates[0].name: expected str, got int"),
], ids=["feature-model-not-a-dict", "relation-pair-of-one",
        "duplicate-feature", "duplicate-transition", "unknown-history",
        "unknown-kind", "no-statechart", "simple-root",
        "initial-path-from-unknown-state", "history-not-a-string",
        "transition-name-not-a-string", "trigger-item-not-a-string",
        "state-optional-not-a-bool", "transition-optional-not-a-bool",
        "substates-not-a-list", "null-condition", "actions-not-a-list",
        "imp-elements-not-a-list", "selected-item-not-a-string",
        "null-actions", "transition-optional-zero", "transition-optional-null",
        "state-optional-null", "name-before-source-and-target",
        "source-before-target", "history-before-name", "trigger-before-cond",
        "cond-before-actions", "actions-before-optional",
        "state-name-before-optional-and-kind"])
def test_the_parser_names_each_malformed_part(edit, error, message):
    doc = json.loads(MINIMAL)
    parse, doc = edit(doc) or (parse_product_line, doc)
    with pytest.raises(error) as caught:
        parse(json.dumps(doc))
    assert type(caught.value) is error
    assert caught.value.message == message


def test_a_lone_surrogate_is_refused_and_a_pair_accepted():
    doc = json.loads(MINIMAL)
    doc["statechart"]["root"]["substates"][0]["name"] = "A\ud800"
    doc["statechart"]["root"]["initial"] = "A\ud800"
    text = json.dumps(doc)
    assert "\\ud800" in text
    with pytest.raises(FormatSyntaxError) as caught:
        parse_product_line(text)
    assert caught.value.message == (
        "string 'A\\ud800' holds a lone surrogate, which UTF-8 cannot encode")
    with pytest.raises(FormatSyntaxError):
        parse_configuration(json.dumps({"selected": ["R", "\udc00"]}))
    # An escaped pair decodes to one character, which UTF-8 encodes.
    doc["statechart"]["root"]["substates"][0]["name"] = "A\U0001f600"
    doc["statechart"]["root"]["initial"] = "A\U0001f600"
    fm, sc, imp = parse_product_line(json.dumps(doc))
    assert sc.root.initial == "A\U0001f600"
    export_dot(sc).encode("utf-8")


def test_duplicate_features_are_found_in_linear_time():
    # Counting each feature among all of them is quadratic: about 28 s on
    # this document of 40,000 features.
    doc = json.loads(MINIMAL)
    doc["feature_model"]["funcs"] = [f"F{i}" for i in range(40_000)] + [
        "F7", "F123"]
    text = json.dumps(doc)
    start = time.perf_counter()
    with pytest.raises(DuplicateNameError) as caught:
        parse_product_line(text)
    assert time.perf_counter() - start < 1.0
    assert caught.value.message == "duplicate feature(s): F123, F7"


def _history_machine():
    """Transitions with every history marker, one of them guarded, with
    an in-state atom, and acting."""
    inner = OrState("C", (SimpleState("D"), SimpleState("E")), "D",
                    (Transition("u", "D", "E", ("f",),
                                history=History.SHALLOW),))
    return StateChart(OrState(
        "Top", (SimpleState("A"), SimpleState("B"), inner), "A",
        (Transition("t", "A", "B", ("e",),
                    Condition((Guard("g ok"), InState("A"))), ("x",),
                    History.DEEP),
         Transition("v", "B", "C", ("e",)))))


def test_history_markers_round_trip():
    fm, _, imp = parse_product_line(MINIMAL)
    sc = _history_machine()
    assert check_well_formed(sc) == []
    text = serialize_product_line(fm, sc, imp)
    assert parse_product_line(text) == (fm, sc, imp)
    assert serialize_product_line(*parse_product_line(text)) == text
    doc = json.loads(text)["statechart"]["root"]
    assert [t.get("history") for t in doc["transitions"]] == ["deep", None]
    assert doc["substates"][2]["transitions"][0]["history"] == "shallow"


def test_export_dot_draws_guards_and_in_state_atoms():
    text = export_dot(_history_machine())
    assert 'label="t: e [g ok & in A] / x"' in text
    g = parse_dot(text)
    assert [(a, b, attrs["label"]) for a, b, attrs in g.edges
            if attrs.get("label", "").startswith("t:")] == [
        ("A", "B", "t: e [g ok & in A] / x")]


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
