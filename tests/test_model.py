from hypothesis import given
from hypothesis import strategies as st

from scpl.model import (AndState, Condition, Guard, InState, MachineIndex,
                        OrState, SimpleState, StateChart, Transition,
                        canonicalize, check_well_formed, valid_name, var_elems)


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
    assert idx.is_within("Q", "Par")
    assert not idx.is_within("Q", "Inner")
    assert idx.descendants("Par") == {"R1", "R2", "P", "Q", "U"}
    assert idx.direct_child_within("Root", "Y") == "Inner"
    assert idx.direct_child_within("Root", "Root") is None


def test_index_transition_ownership():
    idx = MachineIndex(_machine())
    assert idx.owner["t2"] == "Root"
    assert idx.owner["ti"] == "Inner"
    assert idx.owner["tr"] == "R1"


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
