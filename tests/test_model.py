import copy
import dataclasses
import inspect
import pickle
import random
from copy import deepcopy

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import S1K_GENERATOR, S1K_SEED
from generators import (generated_line, inject_faults,
                        inject_transition_faults)
from oracles import reference_well_formed
import scpl.model
from scpl.model import (AndState, Condition, Configuration, FeatureModel,
                        Guard, ImpEntry, ImpMapping, InState, MachineIndex,
                        OrState, RewriteTrace, SimpleState, StateChart,
                        TraceStep, Transition, Violation, canonicalize,
                        check_well_formed, partition, reached, valid_name,
                        valid_transition_name, var_elems)
from scpl.rewrite import WorkingTree
from scpl.strategy import ConfluenceReport, instantiate


def test_valid_name_accepts_ordinary_identifiers():
    for name in ("A", "MainDisplay", "Quick-Marking", "T_1", "a.b"[:1]):
        assert valid_name(name)


def test_valid_name_rejects_structural_characters():
    for name in ("", " ", "a b", "a,b", "a(b", "a)b", "a.b", " a", "a "):
        assert not valid_name(name)


def _valid_name_by_characters(name: str) -> bool:
    """The definition, character by character."""
    if not name or name != name.strip():
        return False
    return not any(ch.isspace() or ch in "()," or ch == "." for ch in name)


def test_valid_name_agrees_with_its_definition_on_every_code_point():
    disagree = [cp for cp in range(0x110000)
                if valid_name(chr(cp)) != _valid_name_by_characters(chr(cp))]
    assert disagree == []
    spaces = [chr(cp) for cp in range(0x110000) if chr(cp).isspace()]
    for name in ("", "ab", *(w + "ab" for w in spaces),
                 *("ab" + w for w in spaces), *("a" + w + "b" for w in spaces),
                 "\ud800ab", "ab\udfff"):
        assert valid_name(name) == _valid_name_by_characters(name), repr(name)


@pytest.mark.parametrize("name, valid", [
    ("t1", True), ("comp(a,b)", True), ("comp(a,b,c)", True),
    ("comp(a)", False), ("comp()", False), ("comp(a,,b)", False),
    ("comp(a b,c)", False), ("comp(a,b", False), ("comp(a.b,c)", False),
    ("a,b", False), ("comp(comp(a,b),c)", False),
])
def test_valid_transition_name(name, valid):
    assert valid_transition_name(name) is valid


@given(st.lists(st.sampled_from([Guard("g"), InState("s")]), max_size=4),
       st.lists(st.sampled_from([Guard("h"), InState("t")]), max_size=4),
       st.lists(st.sampled_from([Guard("k"), InState("u")]), max_size=4))
def test_condition_conjunction_is_associative(a, b, c):
    ca, cb, cc = Condition(tuple(a)), Condition(tuple(b)), Condition(tuple(c))
    assert (ca & cb) & cc == ca & (cb & cc)


def test_condition_empty_is_true_and_identity():
    c = Condition((Guard("g"),))
    assert Condition().is_true
    assert (Condition() & c) == c


def _machine():
    inner = OrState(
        "Inner", (SimpleState("X"), SimpleState("Y")), "X",
        (Transition("ti", "X", "Y", ("e",)),))
    par = AndState("Par", (
        OrState("R1", (SimpleState("P"), SimpleState("Q")), "P",
                (Transition("tr", "P", "Q", ("e",)),)),
        OrState("R2", (SimpleState("U"),), "U"),
    ))
    root = OrState(
        "Root", (SimpleState("A"), inner, par), "A",
        (Transition("t1", "A", "Inner", ("e",)),
         Transition("t2", "Y", "A", ("e",)),
         Transition("t3", "A", "Par", ("e",))))
    return StateChart(root)


def test_index_hierarchy_queries():
    idx = MachineIndex(_machine())
    assert idx.parent["X"] == "Inner"
    assert idx.parent["R1"] == "Par"
    assert list(idx.ancestors("Q")) == ["R1", "Par", "Root"]
    assert idx.direct_child_within("Par", "Q") == "R1"
    assert idx.direct_child_within("Inner", "Q") is None
    assert reached("Par", idx.children) == {"Par", "R1", "R2", "P", "Q", "U"}
    assert idx.direct_child_within("Root", "Y") == "Inner"
    assert idx.direct_child_within("Root", "Root") is None


def test_name_graph_helpers():
    successors = {"a": ["b"], "b": ["c", "a"], "d": ["a"]}
    assert reached("a", successors) == {"a", "b", "c"}
    assert reached("x", successors) == {"x"}
    # The classes do not depend on the order of the links.
    links = [(5, 2), (4, 1), (2, 0)]
    for order in (links, links[::-1]):
        assert partition(range(6), order) == [[0, 2, 5], [1, 4], [3]]


def test_index_transition_ownership():
    idx = MachineIndex(_machine())
    assert idx.owner["t2"] == "Root"
    assert idx.owner["ti"] == "Inner"
    assert idx.owner["tr"] == "R1"


def _maps_from_objects(sc):
    """children, initial, owned and each state's descendants, read off the
    state objects in machine order."""
    children, initial, owned, inside = {}, {}, {}, {}

    def walk(state) -> set:
        kids = ()
        if isinstance(state, OrState):
            kids = state.substates
            initial[state.name] = state.initial
            owned[state.name] = [(t.name, t) for t in state.transitions]
        elif isinstance(state, AndState):
            kids = state.regions
        if not isinstance(state, SimpleState):
            children[state.name] = [k.name for k in kids]
        below = set()
        for kid in kids:
            below |= {kid.name} | walk(kid)
        inside[state.name] = below
        return below

    walk(sc.root)
    return children, initial, owned, inside


@pytest.mark.parametrize("seeds, generator", [
    pytest.param(range(200), {}, id="default-seeds-0-199"),
    pytest.param([S1K_SEED], S1K_GENERATOR, id="s1k"),
])
def test_index_maps_match_the_state_objects(seeds, generator):
    for seed in seeds:
        sc = generated_line(seed, **generator).sc
        idx = MachineIndex(sc)
        children, initial, owned, inside = _maps_from_objects(sc)
        assert [(k, list(v)) for k, v in idx.children.items()] == \
            list(children.items()), seed
        assert list(idx.initial.items()) == list(initial.items()), seed
        assert [(k, list(v)) for k, v in idx.owned.items()] == \
            [(k, [n for n, _ in pairs]) for k, pairs in owned.items()], seed
        assert all(idx.transitions[n] is t
                   for pairs in owned.values() for n, t in pairs), seed
        assert {name: reached(name, idx.children) - {name}
                for name in idx.states} == inside, seed
        assert WorkingTree(sc).freeze() == sc, seed


def test_index_of_a_state_nested_in_its_namesake():
    inner = OrState("A", (SimpleState("B"),), "B")
    sc = StateChart(OrState("Root", (OrState("A", (inner,), "A"),), "A"))
    idx = MachineIndex(sc)
    assert idx.duplicate_states == ["A"]
    assert idx.children == {"Root": {"A": None}, "A": {"B": None}}
    assert reached("Root", idx.children) == {"Root", "A", "B"}
    assert reached("A", idx.children) == {"A", "B"}
    assert [str(v) for v in check_well_formed(sc)] == [
        "A: duplicate state name"]


def test_well_formed_on_good_machine():
    assert check_well_formed(_machine()) == []


def test_well_formed_flags_bad_initial():
    root = OrState("Root", (SimpleState("A"),), "Missing")
    bad = check_well_formed(StateChart(root))
    assert any("initial" in v.message for v in bad)


def test_well_formed_flags_duplicate_names():
    root = OrState("Root", (SimpleState("A"), SimpleState("A")), "A")
    bad = check_well_formed(StateChart(root))
    assert any("duplicate" in v.message for v in bad)


def test_well_formed_reports_repeated_names_alone():
    # Besides the repeated names, Inner's initial is missing and Par has
    # one region; only the repeated names are reported.
    root = OrState(
        "Root",
        (SimpleState("A"), OrState("Inner", (SimpleState("A"),), "Ghost"),
         AndState("Par", (SimpleState("P"),))),
        "A",
        (Transition("t", "A", "Par", ("e",)),
         Transition("t", "A", "Inner", ())))
    assert [str(v) for v in check_well_formed(StateChart(root))] == [
        "A: duplicate state name", "t: duplicate transition name"]


def test_well_formed_equals_the_object_reading_on_faulty_machines():
    faulty = 0
    for seed in range(3000):
        sc = inject_faults(generated_line(seed).sc,
                           random.Random(seed))
        idx = MachineIndex(sc)
        assert not (idx.duplicate_states or idx.duplicate_transitions), seed
        got = check_well_formed(sc)
        assert got == reference_well_formed(sc), seed
        faulty += bool(got)
    assert faulty > 1000


# Every message of the per-transition check, by a fragment of its text.
_TRANSITION_MESSAGES = ("invalid transition name", "invalid event name",
                        "empty trigger", "does not exist", "is not inside owner",
                        "both lie inside", "condition names unknown state")


def test_well_formed_equals_the_reference_on_transition_faults():
    found = dict.fromkeys(_TRANSITION_MESSAGES, 0)
    for seed in range(3000):
        sc = inject_transition_faults(generated_line(seed).sc,
                                      random.Random(seed))
        idx = MachineIndex(sc)
        assert not (idx.duplicate_states or idx.duplicate_transitions), seed
        got = check_well_formed(sc)
        assert got == reference_well_formed(sc), seed
        for v in got:
            for fragment in _TRANSITION_MESSAGES:
                found[fragment] += fragment in v.message
    assert min(found.values()) >= 50, found


def test_well_formed_flags_cross_namespace_collision():
    root = OrState("Root", (SimpleState("A"), SimpleState("B")), "A",
                   (Transition("A", "A", "B", ("e",)),))
    bad = check_well_formed(StateChart(root))
    assert any("both a state and a transition" in v.message for v in bad)


def test_well_formed_flags_empty_trigger():
    root = OrState("Root", (SimpleState("A"), SimpleState("B")), "A",
                   (Transition("t", "A", "B", ()),))
    bad = check_well_formed(StateChart(root))
    assert any("empty trigger" in v.message for v in bad)


def test_well_formed_flags_unknown_instate_atom():
    root = OrState("Root", (SimpleState("A"), SimpleState("B")), "A",
                   (Transition("t", "A", "B", ("e",),
                               Condition((InState("Nope"),))),))
    bad = check_well_formed(StateChart(root))
    assert any("unknown state" in v.message for v in bad)


def test_well_formed_flags_region_crossing():
    par = AndState("Par", (
        OrState("R1", (SimpleState("P"),), "P"),
        OrState("R2", (SimpleState("U"),), "U"),
    ))
    root = OrState("Root", (par,), "Par",
                   (Transition("t", "P", "U", ("e",)),))
    bad = check_well_formed(StateChart(root))
    assert any("does not belong" in v.message for v in bad)


def test_well_formed_allows_deep_endpoints():
    # Entering a composite sibling at a nested state is legal; the
    # transition is owned by the common ancestor.
    sc = _machine()
    assert check_well_formed(sc) == []
    idx = MachineIndex(sc)
    assert idx.owner["t2"] == "Root" and idx.transitions["t2"].source == "Y"


def test_var_elems_collects_both_namespaces():
    root = OrState("Root", (
        SimpleState("A"),
        SimpleState("B", optional=True),
    ), "A", (Transition("t", "A", "B", ("e",), optional=True),))
    assert var_elems(StateChart(root)) == (frozenset({"B"}), frozenset({"t"}))


def test_canonicalize_sorts_and_is_idempotent():
    root = OrState("Root", (SimpleState("B"), SimpleState("A")), "A",
                   (Transition("t2", "B", "A", ("e",)),
                    Transition("t1", "A", "B", ("e",))))
    sc = canonicalize(StateChart(root))
    assert [s.name for s in sc.root.substates] == ["A", "B"]
    assert [t.name for t in sc.root.transitions] == ["t1", "t2"]
    assert canonicalize(sc) == sc


def test_canonicalize_identifies_reordered_machines():
    a = StateChart(OrState("Root", (SimpleState("A"), SimpleState("B")), "A"))
    b = StateChart(OrState("Root", (SimpleState("B"), SimpleState("A")), "A"))
    assert a != b
    assert canonicalize(a) == canonicalize(b)


# One value of every dataclass the library defines as a value type.
_VALUES = (
    Guard("g"), InState("A"), Condition((InState("A"),)),
    Transition("t", "A", "B", ("e",)), SimpleState("A"),
    OrState("Root", (SimpleState("A"),), "A"),
    AndState("P", (SimpleState("A"), SimpleState("B"))),
    StateChart(OrState("Root", (SimpleState("A"),), "A")),
    FeatureModel(frozenset({"R"}), "R"), Configuration(frozenset({"R"})),
    ImpEntry(frozenset({"A"})), ImpMapping(), TraceStep("rule", "A"),
    RewriteTrace(), Violation("A", "message"),
    ConfluenceReport(confluent=True, trials=1, nsc_size=0),
)


def test_every_value_type_is_covered():
    in_model = {cls for cls in vars(scpl.model).values()
                if dataclasses.is_dataclass(cls)
                and cls.__module__ == "scpl.model"}
    assert in_model | {ConfluenceReport} == {type(v) for v in _VALUES}


@pytest.mark.parametrize("value", _VALUES, ids=lambda v: type(v).__name__)
def test_values_are_slotted(value):
    assert "__slots__" in vars(type(value))
    assert not hasattr(value, "__dict__")
    field = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, getattr(value, field))


def _generated_twin(cls):
    """``cls`` as ``dataclasses`` alone would make it: the same fields,
    defaults and annotations, with the generated ``__init__``."""
    return dataclasses.make_dataclass(cls.__name__, [
        (f.name, f.type) if f.default is dataclasses.MISSING
        else (f.name, f.type, dataclasses.field(default=f.default))
        for f in dataclasses.fields(cls)], frozen=True, slots=True)


@pytest.mark.parametrize("value", [v for v in _VALUES
                                   if type(v).__module__ == "scpl.model"],
                         ids=lambda v: type(v).__name__)
def test_value_constructors_behave_as_generated(value):
    # The model's constructors set each slot through its member
    # descriptor; nothing else about the values may differ from what
    # dataclasses generates.
    cls = type(value)
    twin = _generated_twin(cls)
    assert inspect.signature(cls) == inspect.signature(twin)
    assert cls.__init__.__defaults__ == twin.__init__.__defaults__
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
    assert [(f.name, f.type, f.default) for f in dataclasses.fields(cls)] == \
        [(f.name, f.type, f.default) for f in dataclasses.fields(twin)]
    values = {f.name: getattr(value, f.name) for f in dataclasses.fields(cls)}
    assert cls(**values) == value and hash(cls(**values)) == hash(value)
    assert cls(*values.values()) == value
    for name in values:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, values[name])
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
        changed = dataclasses.replace(value, **{name: "other"})
        assert getattr(changed, name) == "other" and changed != value
        assert pickle.loads(pickle.dumps(changed)) == changed
    assert pickle.loads(pickle.dumps(value)) == value
    with pytest.raises(TypeError):
        cls(*values.values(), "one too many")


def test_values_survive_pickle_deepcopy_and_replace():
    for seed in range(20):
        line = generated_line(seed)
        result = instantiate(*line)
        for value in (*line, result.statechart, result.trace):
            twins = [pickle.loads(pickle.dumps(value, protocol))
                     for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            twins += [deepcopy(value), dataclasses.replace(value)]
            for twin in twins:
                assert twin == value, (seed, type(value).__name__)
                assert hash(twin) == hash(value)


@pytest.mark.parametrize("value", [v for v in _VALUES
                                   if type(v).__module__ == "scpl.model"],
                         ids=lambda v: type(v).__name__)
def test_values_copy_through_their_constructor(monkeypatch, value):
    # Pickling and copying rebuild a value from its fields in field order
    # (``__reduce__``), never through the ``__getstate__`` that dataclasses
    # generates, which calls ``fields`` once per value.
    cls = type(value)
    names = [f.name for f in dataclasses.fields(cls)]
    assert value.__reduce__() == (cls, tuple(getattr(value, n)
                                             for n in names))

    def no_fields(*args):
        raise AssertionError("dataclasses.fields called")

    monkeypatch.setattr(dataclasses, "fields", no_fields)
    twins = [pickle.loads(pickle.dumps(value, protocol))
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    twins += [deepcopy(value), copy.copy(value)]
    for twin in twins:
        assert type(twin) is cls and twin == value
        assert hash(twin) == hash(value)


def test_a_copied_machine_keeps_nothing():
    line = generated_line(S1K_SEED, **S1K_GENERATOR)
    sc = deepcopy(line.sc)
    for _ in range(2):
        instantiate(line.fm, line.conf, sc, line.imp)
    assert sc._kept.tree is not None
    for twin in (deepcopy(sc), copy.copy(sc), pickle.loads(pickle.dumps(sc))):
        assert twin == sc
        assert getattr(twin, "_kept", None) is None
