import random
from contextlib import suppress
from copy import deepcopy
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import simple_chain, tree_maps
from generators import (generated_line, inject_transition_faults,
                        random_and_composite, random_or_composite)
from oracles import and_closure, closure
from scpl.errors import (EmptyCompositeError, IsInitialError, NoInitialError,
                         NotAndError, NotOptionalError, NotSimpleError,
                         NotSubstateError, OptionalComposeError,
                         RewriteError, ScplError)
from scpl import datasets
from scpl.binding import nsc
from scpl.model import (AndState, Condition, Guard, History, InState,
                        MachineIndex, OrState, SimpleState, StateChart,
                        Transition, canonicalize, comp_parts, reached)
from scpl.rewrite import (PendingSet, WorkingTree, comp, comp_name,
                          delete_and_state, delete_or_state,
                          delete_simple_state, delete_transition,
                          entry_exit_pairs, finalize_optionals,
                          prune_conditions, reachable_and, reachable_or,
                          repair_initial, _projections, _tuple_search)
from scpl.strategy import instantiate


def T(name, src, tgt, trig=("e",), **kw):
    return Transition(name, src, tgt, trig, **kw)


# --- composition ----------------------------------------------------------

def test_comp_concatenates_fields():
    t1 = T("t1", "A", "E", ("a", "b"), cond=Condition((Guard("g"),)),
           actions=("x",))
    t2 = T("t2", "E", "B", ("c",), cond=Condition((InState("S"),)),
           actions=("y", "z"), history=History.DEEP)
    c = comp(t1, t2)
    assert c.name == "comp(t1,t2)"
    assert (c.source, c.target) == ("A", "B")
    assert c.trigger == ("a", "b", "c")
    assert c.cond.atoms == (Guard("g"), InState("S"))
    assert c.actions == ("x", "y", "z")
    assert c.history is History.DEEP
    assert not c.optional


def test_comp_rejects_optional_operands():
    t1 = T("t1", "A", "E", optional=True)
    t2 = T("t2", "E", "B")
    with pytest.raises(OptionalComposeError):
        comp(t1, t2)


def test_comp_rejects_disconnected_operands():
    with pytest.raises(RewriteError):
        comp(T("t1", "A", "E"), T("t2", "F", "B"))


def test_comp_name_flattens():
    assert comp_name("comp(a,b)", "c") == "comp(a,b,c)"
    assert comp_name("a", "comp(b,c)") == "comp(a,b,c)"


# Names of pieces that make and break composed names: nested, unclosed,
# empty, comma-led and bare parentheses.
_NAME_PIECES = st.lists(st.sampled_from(["comp(", ")", ",", "a", "b", "c"]),
                        max_size=10).map("".join)


@settings(max_examples=500, deadline=None)
@given(_NAME_PIECES, _NAME_PIECES)
def test_comp_name_joins_the_parts_of_both_names(first, second):
    # The split-and-join definition that slicing the inner text replaces.
    assert comp_name(first, second) == (
        "comp(" + ",".join(comp_parts(first) + comp_parts(second)) + ")")


@given(st.lists(st.tuples(st.text("ab", min_size=1, max_size=2),
                          st.text("xy", min_size=1, max_size=2),
                          st.booleans()),
                min_size=3, max_size=3))
def test_comp_is_associative(specs):
    ts = []
    nodes = ["A", "B", "C", "D"]
    for i, (trig, act, guarded) in enumerate(specs):
        cond = Condition((Guard(f"g{i}"),)) if guarded else Condition()
        ts.append(T(f"t{i}", nodes[i], nodes[i + 1], (trig,), cond=cond,
                    actions=(act,)))
    left = comp(comp(ts[0], ts[1]), ts[2])
    right = comp(ts[0], comp(ts[1], ts[2]))
    assert left == right


# --- entry/exit pairs -----------------------------------------------------

def test_entry_exit_pairs_cross_product(chain):
    pending = PendingSet({"E1", "E2"})
    pairs = entry_exit_pairs("E1", chain, pending)
    assert {(a.name, b.name) for a, b in pairs} == {("t1", "t2")}


def test_entry_exit_pairs_excludes_optional_pending_and_self_loops():
    root = OrState(
        "Root",
        (SimpleState("A"), SimpleState("E", optional=True), SimpleState("B")),
        "A",
        (T("in1", "A", "E"), T("in2", "A", "E", optional=True),
         T("inp", "A", "E"), T("self", "E", "E"), T("out", "E", "B")),
    )
    sc = StateChart(root)
    pending = PendingSet({"E", "inp"})
    pairs = entry_exit_pairs("E", sc, pending)
    assert {(a.name, b.name) for a, b in pairs} == {("in1", "out")}
    literal = entry_exit_pairs("E", sc, pending, include_pending=True)
    assert {(a.name, b.name) for a, b in literal} == {("in1", "out"),
                                                      ("inp", "out")}


def _added_and_paired(sc, elem, pending, include_pending=False):
    """The names of the transitions ``delete_simple_state`` adds, and the
    composed names of the pairs ``entry_exit_pairs`` gives; None when the
    deletion refuses."""
    try:
        out = delete_simple_state(elem, sc, PendingSet(pending),
                                  include_pending=include_pending)
    except RewriteError:
        return None
    added = set(MachineIndex(out).transitions) - set(
        MachineIndex(sc).transitions)
    pairs = entry_exit_pairs(elem, sc, PendingSet(pending),
                             include_pending=include_pending)
    return added, {comp_name(a.name, b.name) for a, b in pairs}


def test_entry_exit_pairs_count_a_repeated_transition_name_once():
    # The index registers the first "in" only, and so does the deletion.
    root = OrState(
        "Root",
        (SimpleState("A"), SimpleState("E", optional=True), SimpleState("B")),
        "A", (T("in", "A", "E"), T("in", "B", "E"), T("out", "E", "B")))
    sc = StateChart(root)
    pairs = entry_exit_pairs("E", sc, PendingSet({"E"}))
    assert {(a.source, b.name) for a, b in pairs} == {("A", "out")}
    assert _added_and_paired(sc, "E", {"E"}) == ({"comp(in,out)"},
                                                  {"comp(in,out)"})


@pytest.mark.parametrize("include_pending", [False, True])
def test_entry_exit_pairs_are_what_a_simple_deletion_composes(
        include_pending):
    large = {"max_depth": 3, "max_substates": 6, "max_features": 12}
    lines = ([generated_line(seed) for seed in range(200)]
             + [generated_line(seed, **large)
                for seed in range(1_500_000, 1_500_050)])
    checked = 0
    for line in lines:
        idx = MachineIndex(line.sc)
        doomed = nsc(line.fm, line.conf, line.sc, line.imp)
        for name, state in idx.states.items():
            parent = idx.states.get(idx.parent[name] or "")
            if not (isinstance(state, SimpleState) and state.optional
                    and isinstance(parent, OrState)):
                continue
            got = _added_and_paired(line.sc, name, doomed | {name},
                                    include_pending)
            if got is not None:
                added, paired = got
                assert added == paired, name
                checked += 1
    assert checked > 500


def test_entry_exit_pairs_requires_simple_state():
    root = OrState("Root", (OrState("E", (SimpleState("X"),), "X"),), "E")
    with pytest.raises(NotSimpleError):
        entry_exit_pairs("E", StateChart(root), PendingSet(set()))


# --- delete_simple_state --------------------------------------------------

def test_delete_simple_state_bridges_pairs(chain):
    pending = PendingSet({"E1", "E2"})
    sc = delete_simple_state("E1", chain, pending)
    idx = MachineIndex(sc)
    assert "E1" not in idx.states
    assert set(idx.transitions) == {"comp(t1,t2)", "t3"}
    assert idx.transitions["comp(t1,t2)"].target == "E2"
    assert pending == {"E2"}


def test_delete_simple_chain_both_orders_agree(chain):
    a = delete_simple_state("E1", chain, PendingSet({"E1", "E2"}))
    a = delete_simple_state("E2", a, PendingSet({"E2"}))
    b = delete_simple_state("E2", chain, PendingSet({"E1", "E2"}))
    b = delete_simple_state("E1", b, PendingSet({"E1"}))
    assert canonicalize(a) == canonicalize(b)
    idx = MachineIndex(canonicalize(a))
    assert set(idx.transitions) == {"comp(t1,t2,t3)"}
    t = idx.transitions["comp(t1,t2,t3)"]
    assert t.trigger == ("a", "b", "c")


def test_working_tree_copy_edits_apart_from_its_original(chain):
    tree = WorkingTree(chain)
    tree.delete_state("E1", PendingSet({"E1", "E2"}))
    twin = tree.copy()
    assert tree_maps(twin) == tree_maps(tree)
    assert twin.facts is tree.facts
    inner = ("children", "owned", "adjacent")
    # The copy shares every inner dict and set until it writes one.
    for m in inner:
        source = getattr(tree, m)
        assert all(c is source[k] for k, c in getattr(twin, m).items()), m
    before = deepcopy(tree_maps(tree))
    twin.delete_state("E2", PendingSet({"E2"}))
    assert tree_maps(tree) == before
    # Only the containers the deletion wrote were copied.
    copied = {(m, k) for m in inner for k, c in getattr(twin, m).items()
              if c is not getattr(tree, m).get(k)}
    written = {(m, k) for m in inner for k, c in getattr(twin, m).items()
               if c != getattr(tree, m).get(k)}
    assert copied == written == {("children", "Root"), ("owned", "Root"),
                                 ("adjacent", "A"), ("adjacent", "B")}
    tree.delete_state("E2", PendingSet({"E2"}))
    assert tree_maps(tree) == tree_maps(twin)
    assert twin.facts is tree.facts
    # Dict equality ignores order, so check where the addition went.
    assert list(tree.owned["Root"])[-1] == "comp(t1,t2,t3)"
    assert list(twin.owned["Root"])[-1] == "comp(t1,t2,t3)"


def _assert_maps_agree(tree: WorkingTree, step) -> None:
    """The working tree's maps describe one machine, and none of them
    names a state or a transition that ``step`` removed."""
    transitions, owner, owned = tree.transitions, tree.owner, tree.owned
    assert owner.keys() == transitions.keys()
    assert {n: home for home, names in owned.items() for n in names} == owner
    ends: dict[str, set[str]] = {}
    for name, t in transitions.items():
        for end in (t.source, t.target):
            ends.setdefault(end, set()).add(name)
    assert {s: names for s, names in tree.adjacent.items() if names} == ends
    assert tree.parent.keys() == tree.states.keys()
    assert {c: p for p, kids in tree.children.items() for c in kids} == {
        c: p for c, p in tree.parent.items() if p is not None}
    assert [c for c, p in tree.parent.items() if p is None] == [tree.root]
    assert tree.children.keys() <= tree.states.keys()
    assert tree.initial.keys() == owned.keys() <= tree.children.keys()
    gone = set(step.removed_states)
    assert gone and not gone & (
        tree.states.keys() | tree.children.keys() | tree.adjacent.keys()
        | set(tree.initial.values()) | ends.keys())
    assert not set(step.removed_transitions) & transitions.keys()


def test_the_maps_agree_after_every_state_deletion(monkeypatch):
    # A deletion pops the entries keyed by a doomed state without editing
    # them first; the maps must still agree, on unvalidated input too.
    checked = [0]
    orig = WorkingTree.delete_state

    def checking(self, *args, **kwargs):
        step = orig(self, *args, **kwargs)
        _assert_maps_agree(self, step)
        checked[0] += 1
        return step

    monkeypatch.setattr(WorkingTree, "delete_state", checking)
    rules = {SimpleState: delete_simple_state, OrState: delete_or_state,
             AndState: delete_and_state}
    faulty = 0
    for seed in range(200):
        line = generated_line(seed)
        instantiate(*line)
        sc = inject_transition_faults(line.sc, random.Random(seed))
        faulty += sc != line.sc
        with suppress(ScplError):
            instantiate(line.fm, line.conf, sc, line.imp, validate=False)
        for machine in (line.sc, sc):
            idx = MachineIndex(machine)
            doomed = nsc(line.fm, line.conf, machine, line.imp)
            for name in sorted(doomed & idx.states.keys()):
                rule = rules[type(idx.states[name])]
                with suppress(ScplError):
                    rule(name, machine, PendingSet(doomed))
    assert faulty > 50
    assert checked[0] > 500


def test_delete_simple_state_refuses_a_duplicate_composed_name():
    # A user transition may itself be named comp(...); bridging E would
    # create a second transition of that name.
    root = OrState(
        "Root",
        (SimpleState("A"), SimpleState("E", optional=True), SimpleState("B")),
        "A",
        (T("a", "A", "E"), T("b", "E", "B"), T("comp(a,b)", "A", "B")))
    pending = PendingSet({"E"})
    with pytest.raises(RewriteError, match="duplicate"):
        delete_simple_state("E", StateChart(root), pending)
    assert pending == {"E"}


def test_delete_simple_state_guards():
    root = OrState(
        "Root", (SimpleState("A"), SimpleState("E", optional=True)), "A")
    sc = StateChart(root)
    with pytest.raises(RewriteError):
        delete_simple_state("E", sc, PendingSet(set()))  # not pending
    root2 = OrState("Root", (SimpleState("A"), SimpleState("E")), "A")
    with pytest.raises(NotOptionalError):
        delete_simple_state("E", StateChart(root2), PendingSet({"E"}))
    root3 = OrState(
        "Root", (SimpleState("E", optional=True), SimpleState("A")), "E")
    with pytest.raises(IsInitialError):
        delete_simple_state("E", StateChart(root3), PendingSet({"E"}))
    # Only an ill-formed Or-state can hold a sole child that is not its
    # initial substate; deleting that child would leave it empty.
    root4 = OrState("Root", (SimpleState("A"), OrState(
        "In", (SimpleState("C", optional=True),), "Ghost")), "A")
    with pytest.raises(EmptyCompositeError) as caught:
        delete_simple_state("C", StateChart(root4), PendingSet({"C"}))
    assert caught.value.message == "deleting would leave Or-state 'In' empty"


@pytest.mark.parametrize("rule, elem, error, message", [
    (delete_simple_state, "O", NotSimpleError, "'O' is not a simple state"),
    (delete_and_state, "E", NotAndError, "'E' is not an And-state"),
    (delete_or_state, "P", RewriteError, "'P' is not an Or-state"),
])
def test_each_deletion_rule_refuses_a_state_of_another_kind(rule, elem, error,
                                                            message):
    # Each state is optional, pending and deletable by its own kind's rule.
    par = AndState("P", (OrState("R1", (SimpleState("P1"),), "P1"),
                         OrState("R2", (SimpleState("P2"),), "P2")),
                   optional=True)
    root = OrState("Root", (
        SimpleState("A"), SimpleState("E", optional=True),
        OrState("O", (SimpleState("X"),), "X", optional=True), par), "A")
    pending = PendingSet({elem})
    with pytest.raises(RewriteError) as caught:
        rule(elem, StateChart(root), pending)
    assert type(caught.value) is error
    assert caught.value.message == message
    assert pending == {elem}


def test_delete_root_is_refused():
    root = OrState("Root", (SimpleState("A"),), "A", optional=True)
    with pytest.raises(EmptyCompositeError):
        delete_or_state("Root", StateChart(root), PendingSet({"Root"}))


def test_delete_non_initial_sibling_inside_composite():
    inner = OrState("Inner", (SimpleState("X", optional=True),
                              SimpleState("Y", optional=True)), "Y")
    root = OrState("Root", (SimpleState("A"), inner), "A")
    with pytest.raises(IsInitialError):
        delete_simple_state("Y", StateChart(root), PendingSet({"Y"}))
    sc = delete_simple_state("X", StateChart(root), PendingSet({"X"}))
    assert "X" not in MachineIndex(sc).states


def test_delete_last_region_sibling_is_refused():
    par = AndState("Par", (
        OrState("R1", (SimpleState("P"),), "P"),
        OrState("R2", (SimpleState("U", optional=True),
                       SimpleState("V"),), "V", optional=True),
    ))
    root = OrState("Root", (par,), "Par")
    with pytest.raises(EmptyCompositeError):
        delete_or_state("R2", StateChart(root), PendingSet({"R2", "U"}))


# --- delete_or_state ------------------------------------------------------

def _or_composite():
    comp_state = OrState(
        "E",
        (SimpleState("X"), SimpleState("Y"), SimpleState("Z")),
        "X",
        (T("ixy", "X", "Y"), T("iyz", "Y", "Z")),
        optional=True,
    )
    root = OrState(
        "Root",
        (SimpleState("A"), comp_state, SimpleState("B"), SimpleState("C")),
        "A",
        (T("inE", "A", "E"),        # enters at initial X
         T("inY", "A", "Y"),        # enters at Y directly
         T("outZ", "Z", "B"),       # leaves from Z
         T("outE", "E", "C")),      # leaves the composite as a unit
    )
    return StateChart(root)


def test_delete_or_state_composes_reachable_pairs():
    sc = _or_composite()
    pending = PendingSet({"E"})
    out = delete_or_state("E", sc, pending)
    idx = MachineIndex(out)
    assert "E" not in idx.states and "X" not in idx.states
    assert set(idx.transitions) == {
        "comp(inE,outZ)", "comp(inE,outE)",
        "comp(inY,outZ)", "comp(inY,outE)",
    }
    assert idx.transitions["comp(inE,outZ)"].source == "A"
    assert idx.transitions["comp(inE,outZ)"].target == "B"
    assert not pending


def test_delete_or_state_unreachable_exit_is_dropped():
    # Entry at Z: X and Y are not reachable from Z, the unit exit still fires.
    comp_state = OrState(
        "E", (SimpleState("X"), SimpleState("Z")), "X",
        (T("ixz", "X", "Z"),), optional=True)
    root = OrState(
        "Root", (SimpleState("A"), comp_state, SimpleState("B")), "A",
        (T("inZ", "A", "Z"), T("outX", "X", "B"), T("outE", "E", "B")))
    out = delete_or_state("E", StateChart(root), PendingSet({"E"}))
    assert set(MachineIndex(out).transitions) == {"comp(inZ,outE)"}


def test_delete_or_state_pending_internal_transition_blocks_reachability():
    sc = _or_composite()
    pending = PendingSet({"E", "iyz"})
    out = delete_or_state("E", sc, pending)
    names = set(MachineIndex(out).transitions)
    # Z is no longer reachable from X or Y, so outZ only pairs with nothing.
    assert names == {"comp(inE,outE)", "comp(inY,outE)"}
    assert not pending


def test_transition_leaving_its_owner_grants_no_reachability():
    # Only an unvalidated machine lets E own ``bad``, whose source X lies
    # outside E: it is no move of E's region, and deleting E drops it.
    e = OrState("E", (SimpleState("A"), SimpleState("B")), "A",
                (T("ab", "A", "B"), T("bad", "X", "B")), optional=True)
    sc = StateChart(OrState(
        "Root", (SimpleState("X"), e), "X",
        (T("inA", "X", "A"), T("inB", "X", "B"),
         T("outA", "A", "X"), T("outB", "B", "X"))))
    assert reachable_or("E", "A", sc, PendingSet(set())) == {"A", "B"}
    assert reachable_or("E", "B", sc, PendingSet(set())) == {"B"}
    out = MachineIndex(delete_or_state("E", sc, PendingSet({"E"})))
    assert set(out.states) == {"Root", "X"}
    assert set(out.transitions) == {
        "comp(inA,outA)", "comp(inA,outB)", "comp(inB,outB)"}

    # Likewise a region's transition into a sibling region.
    par = AndState("P", (
        OrState("R1", (SimpleState("A"), SimpleState("B")), "A",
                (T("ab", "A", "B"), T("bad", "B", "V"))),
        OrState("R2", (SimpleState("U"), SimpleState("V")), "U")),
        optional=True)
    sc2 = StateChart(OrState(
        "Root", (SimpleState("X"), par), "X",
        (T("in", "X", "P"), T("outB", "B", "X"), T("outV", "V", "X"))))
    assert reachable_and("P", ("A", "U"), sc2, PendingSet(set())) == {
        ("A", "U"), ("B", "U")}
    out2 = delete_and_state("P", sc2, PendingSet({"P"}))
    assert set(MachineIndex(out2).transitions) == {"comp(in,outB)"}


# --- delete_and_state -----------------------------------------------------

def _and_composite():
    par = AndState("E", (
        OrState("R1", (SimpleState("P"), SimpleState("Q")), "P",
                (T("tpq", "P", "Q", ("m",)),)),
        OrState("R2", (SimpleState("U"), SimpleState("V")), "U",
                (T("tuv", "U", "V", ("m",)),)),
    ), optional=True)
    root = OrState(
        "Root", (SimpleState("A"), par, SimpleState("B")), "A",
        (T("inE", "A", "E"),
         T("inQ", "A", "Q"),
         T("outV", "V", "B"),
         T("outE", "E", "B")))
    return StateChart(root)


def test_delete_and_state_tuple_reachability():
    out = delete_and_state("E", _and_composite(), PendingSet({"E"}))
    idx = MachineIndex(out)
    # From (P,U) the synchronous step on m reaches (Q,V); from the inQ entry
    # the start is (Q,U) where m only moves R2.
    assert set(idx.transitions) == {
        "comp(inE,outV)", "comp(inE,outE)",
        "comp(inQ,outV)", "comp(inQ,outE)",
    }


def test_delete_and_state_exit_blocked_without_synchronous_partner():
    par = AndState("E", (
        OrState("R1", (SimpleState("P"), SimpleState("Q")), "P",
                (T("tpq", "P", "Q", ("m",),
                   cond=Condition((InState("V"),))),)),
        OrState("R2", (SimpleState("U"), SimpleState("V")), "U",
                (T("tuv", "U", "V", ("n",)),)),
    ), optional=True)
    root = OrState(
        "Root", (SimpleState("A"), par, SimpleState("B")), "A",
        (T("inE", "A", "E"), T("outQ", "Q", "B")))
    out = delete_and_state("E", StateChart(root), PendingSet({"E"}))
    # Q needs in-state V, reachable only after the n-step moves R2.
    assert set(MachineIndex(out).transitions) == {"comp(inE,outQ)"}

    # Remove the n-transition and the same exit becomes unreachable.
    par2 = AndState("E", (
        OrState("R1", (SimpleState("P"), SimpleState("Q")), "P",
                (T("tpq", "P", "Q", ("m",),
                   cond=Condition((InState("V"),))),)),
        OrState("R2", (SimpleState("U"), SimpleState("V")), "U"),
    ), optional=True)
    root2 = OrState(
        "Root", (SimpleState("A"), par2, SimpleState("B")), "A",
        (T("inE", "A", "E"), T("outQ", "Q", "B")))
    out2 = delete_and_state("E", StateChart(root2), PendingSet({"E"}))
    assert set(MachineIndex(out2).transitions) == set()


# --- reachability error paths ---------------------------------------------

def _reachability_machine():
    e = OrState("E", (SimpleState("A"), OrState("N", (SimpleState("Na"),),
                                                "Na")), "A")
    p = AndState("P", (OrState("R0", (SimpleState("X"), SimpleState("Y")),
                               "X"), SimpleState("R1")))
    return StateChart(OrState("Root", (SimpleState("Out"), e, p), "Out"))


@pytest.mark.parametrize("rule, elem, start, error, message", [
    (reachable_or, "Out", "Out",
     RewriteError, "'Out' is not an Or-state"),
    (reachable_or, "P", "R0",
     RewriteError, "'P' is not an Or-state"),
    (reachable_or, "Ghost", "A",
     RewriteError, "'Ghost' is not an Or-state"),
    (reachable_or, "E", "Na",
     NotSubstateError, "'Na' is not a direct substate of 'E'"),
    (reachable_or, "E", "Out",
     NotSubstateError, "'Out' is not a direct substate of 'E'"),
    (reachable_and, "E", ("A",),
     NotAndError, "'E' is not an And-state"),
    (reachable_and, "Ghost", ("A",),
     NotAndError, "'Ghost' is not an And-state"),
    (reachable_and, "P", ("X",),
     NotSubstateError, "start tuple has 1 coordinates for 2 regions"),
    (reachable_and, "P", ("X", "R1", "R1"),
     NotSubstateError, "start tuple has 3 coordinates for 2 regions"),
    (reachable_and, "P", ("A", "R1"),
     NotSubstateError, "'A' is not a substate of region 'R0'"),
    (reachable_and, "P", ("X", "Y"),
     NotSubstateError, "'Y' is not a substate of region 'R1'"),
])
def test_reachability_rejects_bad_input(rule, elem, start, error, message):
    with pytest.raises(RewriteError) as caught:
        rule(elem, start, _reachability_machine(), PendingSet(set()))
    assert type(caught.value) is error
    assert caught.value.message == message


def test_a_pending_move_grants_reachability_only_when_included():
    o = OrState("O", (SimpleState("X"), SimpleState("Y")), "X",
                (T("p", "X", "Y"),))
    p = AndState("P", (OrState("R0", (SimpleState("A"), SimpleState("B")),
                               "A", (T("q", "A", "B"),)),
                       OrState("R1", (SimpleState("C"),), "C")))
    sc = StateChart(OrState("Root", (o, p), "O"))
    pending = PendingSet({"p", "q"})
    assert reachable_or("O", "X", sc, pending) == {"X"}
    assert reachable_or("O", "X", sc, pending,
                        include_pending=True) == {"X", "Y"}
    assert reachable_and("P", ("A", "C"), sc, pending) == {("A", "C")}
    assert reachable_and("P", ("A", "C"), sc, pending,
                         include_pending=True) == {("A", "C"), ("B", "C")}


# --- reachability against the brute-force oracle --------------------------

def _project(comp_state, name):
    for sub in comp_state.substates:
        if sub.name == name:
            return name
        if isinstance(sub, OrState) and any(s.name == name
                                            for s in sub.substates):
            return sub.name
    return None


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_reachable_or_matches_oracle(seed):
    sc, comp_state = random_or_composite(seed)
    names = [s.name for s in comp_state.substates]
    edges = set()
    for t in comp_state.transitions:
        u, v = _project(comp_state, t.source), _project(comp_state, t.target)
        if u and v:
            edges.add((u, v))
    for start in names:
        got = reachable_or("E", start, sc, PendingSet(set()))
        assert got == closure(names, edges, start)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_reachable_and_matches_oracle(seed):
    sc, comp_state = random_and_composite(seed)
    region_nodes = [[s.name for s in r.substates] for r in comp_state.regions]
    region_moves = []
    for r in comp_state.regions:
        rows = []
        for t in r.transitions:
            atoms = [a for a in t.cond.atoms if isinstance(a, InState)]
            rows.append((t.source, t.trigger, atoms, t.target))
        region_moves.append(rows)

    def instate_ok(atom, cur):
        return atom.state in cur or any(atom.state == r.name
                                        for r in comp_state.regions)

    start = tuple(nodes[0] for nodes in region_nodes)
    got = reachable_and("E", start, sc, PendingSet(set()))
    want = and_closure(region_nodes, region_moves, start, instate_ok)
    assert got == want


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.booleans(), st.data())
def test_a_lone_region_closure_is_its_tuple_search(seed, and_state, data):
    # A region that waits on no other is closed over its moves as a plain
    # graph; its one-region tuple search is the reference.  Each move
    # keeps the requirements naming its own region and draws more of them
    # over the region's coordinates.
    sc, _ = (random_and_composite if and_state else random_or_composite)(seed)
    tree = WorkingTree(sc)
    regions, coordinate = tree._regions("E")
    moves = tree._moves("E", regions, coordinate, (), range(len(regions)))
    default = [tree.initial[r] for r in regions]
    for j, region in enumerate(regions):
        coords = list(tree.children[region])
        own = [(u, trigger,
                tuple(need for need in needs if need[0] == j)
                + tuple((j, node) for node in data.draw(
                    st.lists(st.sampled_from(coords), max_size=2))),
                v)
               for u, trigger, needs, v in moves[j]]
        alone = [own if i == j else [] for i in range(len(regions))]
        for node in coords:
            start = tuple(node if i == j else default[i]
                          for i in range(len(regions)))
            want = {tup[j] for tup in _tuple_search([j], start, alone)}
            assert _projections([[j]], alone, start)[j] == want


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.data())
def test_delete_and_state_pairs_exits_by_projection_oracle(seed, data):
    sc, comp_state = random_and_composite(seed, max_regions=4,
                                          max_substates=4)
    # The last substate of region 0, and of each region the draw picks,
    # becomes an Or-state over two deeper states.  Region moves, in-state
    # atoms, entries and exits may name those, and each projects onto the
    # region's direct substate holding it.
    picks = data.draw(st.lists(st.booleans(), min_size=len(comp_state.regions),
                               max_size=len(comp_state.regions)))
    project: dict[str, str] = {}
    substates = []
    for r, (region, pick) in enumerate(zip(comp_state.regions, picks)):
        subs = list(region.substates)
        project.update((sub.name, sub.name) for sub in subs)
        if r == 0 or pick:
            node = subs[-1].name
            deep = [f"{node}a", f"{node}b"]
            subs[-1] = OrState(node, tuple(map(SimpleState, deep)), deep[0],
                               (T(f"{node}ab", *deep),))
            project.update(dict.fromkeys(deep, node))
        substates.append(tuple(subs))

    def deeper(name):
        return data.draw(st.sampled_from(
            [n for n, node in project.items() if node == name]))

    nested_regions = [
        replace(region, substates=subs, transitions=tuple(
            replace(t, source=deeper(t.source), target=deeper(t.target),
                    cond=Condition(tuple(InState(deeper(a.state))
                                         for a in t.cond.atoms)))
            for t in region.transitions))
        for region, subs in zip(comp_state.regions, substates)]
    region_nodes = [[s.name for s in r.substates] for r in nested_regions]
    region_moves = [
        [(project[t.source], t.trigger,
          [a for a in t.cond.atoms if isinstance(a, InState)],
          project[t.target])
         for t in r.transitions]
        for r in nested_regions]
    regions = [r.name for r in nested_regions]
    ends = st.sampled_from(["E", *regions, *project])
    entries = [T(f"in{i}", "Out", tgt) for i, tgt in
               enumerate(data.draw(st.lists(ends, min_size=1, max_size=3)))]
    exits = [T(f"out{i}", src, "Out") for i, src in
             enumerate(data.draw(st.lists(ends, min_size=1, max_size=3)))]
    root = OrState("Root", (SimpleState("Out"), replace(
                        comp_state, regions=tuple(nested_regions),
                        optional=True)),
                   "Out", tuple(entries + exits))

    def instate_ok(atom, cur):
        return project[atom.state] in cur

    want = set()
    for te in entries:
        start = [nodes[0] for nodes in region_nodes]
        for r, nodes in enumerate(region_nodes):
            if project.get(te.target) in nodes:
                start[r] = project[te.target]
        reach = and_closure(region_nodes, region_moves, tuple(start),
                            instate_ok)
        for ts in exits:
            if ts.source == "E" or ts.source in regions or any(
                    project[ts.source] in tup for tup in reach):
                want.add(comp_name(te.name, ts.name))
    out = delete_and_state("E", StateChart(root), PendingSet({"E"}))
    assert set(MachineIndex(out).transitions) == want


def test_delete_and_state_sweep_pairs_exits_by_the_joint_oracle():
    # Seeds 0-1999, each composite entered into and left from a drawn
    # substate of every region, against the search of all regions jointly.
    # A region waits on another when an in-state atom of its moves names a
    # state of that one; the deletion searches an exit's region with the
    # regions it waits on, transitively, which is smaller than the
    # region's undirected component when some region of the component is
    # not waited on.  The pairings whose exit region is in that case are
    # counted, so a sweep that no longer reaches it fails.
    waiting = one_way = narrower = 0
    for seed in range(2000):
        _, comp_state = random_and_composite(seed, max_regions=4,
                                             max_substates=4)
        rng = random.Random(seed)
        region_nodes = [[s.name for s in r.substates]
                        for r in comp_state.regions]
        region_of = {node: r for r, nodes in enumerate(region_nodes)
                     for node in nodes}
        region_moves = [
            [(t.source, t.trigger,
              [a for a in t.cond.atoms if isinstance(a, InState)], t.target)
             for t in r.transitions]
            for r in comp_state.regions]
        waits = {r: {region_of[a.state] for _, _, atoms, _ in rows
                     for a in atoms} - {r}
                 for r, rows in enumerate(region_moves)}
        linked = {r: set(waits[r]) for r in waits}
        for r, others in waits.items():
            for other in others:
                linked[other].add(r)
        differs = [reached(r, waits) != reached(r, linked) for r in waits]
        waiting += any(waits.values())
        one_way += any(differs)
        entries = [T(f"in{r}", "Out", rng.choice(nodes))
                   for r, nodes in enumerate(region_nodes)]
        exits = [T(f"out{r}", rng.choice(nodes), "Out")
                 for r, nodes in enumerate(region_nodes)]
        root = OrState("Root", (SimpleState("Out"),
                                replace(comp_state, optional=True)),
                       "Out", tuple(entries + exits))
        want = set()
        for te in entries:
            start = [nodes[0] for nodes in region_nodes]
            start[region_of[te.target]] = te.target
            reach = and_closure(region_nodes, region_moves, tuple(start),
                                lambda atom, cur: atom.state in cur)
            for r, ts in enumerate(exits):
                if any(tup[r] == ts.source for tup in reach):
                    want.add(comp_name(te.name, ts.name))
            narrower += sum(differs)
        out = delete_and_state("E", StateChart(root), PendingSet({"E"}))
        assert set(MachineIndex(out).transitions) == want, seed
    # 857 composites have a waiting region, 797 a region whose wait
    # closure is narrower than its component, and 3,570 pairings leave
    # from such a region.
    assert waiting >= 850 and one_way >= 790 and narrower >= 3_500


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.data())
def test_delete_or_state_pairs_exits_by_closure_oracle(seed, data):
    sc, comp_state = random_or_composite(seed)
    names = [s.name for s in comp_state.substates]
    nested = [n.name for s in comp_state.substates
              if isinstance(s, OrState) for n in s.substates]
    # In-state atoms on internal transitions must not gate Or-reachability.
    atoms = data.draw(st.lists(st.sampled_from([None, *names, *nested]),
                               min_size=len(comp_state.transitions),
                               max_size=len(comp_state.transitions)))
    internal = tuple(t if a is None else replace(t, cond=Condition(
        (InState(a),))) for t, a in zip(comp_state.transitions, atoms))
    edges = set()
    for t in internal:
        u, v = _project(comp_state, t.source), _project(comp_state, t.target)
        if u and v:
            edges.add((u, v))
    ends = st.sampled_from(["E", *names, *nested])
    entries = [T(f"in{i}", "Out", tgt) for i, tgt in
               enumerate(data.draw(st.lists(ends, min_size=1, max_size=3)))]
    exits = [T(f"out{i}", src, "Out") for i, src in
             enumerate(data.draw(st.lists(ends, min_size=1, max_size=3)))]
    root = OrState("Root", (SimpleState("Out"),
                            replace(comp_state, transitions=internal,
                                    optional=True)),
                   "Out", tuple(entries + exits))

    want = set()
    for te in entries:
        start = (comp_state.initial if te.target == "E"
                 else _project(comp_state, te.target))
        reach = closure(names, edges, start)
        for ts in exits:
            if ts.source == "E" or _project(comp_state, ts.source) in reach:
                want.add(comp_name(te.name, ts.name))
    out = delete_or_state("E", StateChart(root), PendingSet({"E"}))
    assert set(MachineIndex(out).transitions) == want


# --- repair, prune, transition deletion, finalize -------------------------

def _region_machine():
    par = AndState("X", (SimpleState("P"), SimpleState("Q")))
    return StateChart(OrState("Root", (SimpleState("A"), par), "A"))


@pytest.mark.parametrize("apply, message", [
    (lambda sc: entry_exit_pairs("P", sc, PendingSet(set())),
     "parent of 'P' owns no transitions"),
    (lambda sc: entry_exit_pairs("Nope", sc, PendingSet(set())),
     "no state named 'Nope'"),
    (lambda sc: repair_initial("X", sc, PendingSet(set())),
     "'X' is not an Or-state"),
    (lambda sc: prune_conditions("Nope", sc), "no state named 'Nope'"),
    (lambda sc: delete_simple_state("Nope", sc, PendingSet({"Nope"})),
     "no state named 'Nope'"),
], ids=["pairs-of-a-region", "pairs-of-a-missing-state",
        "repair-an-and-state", "prune-a-missing-state",
        "delete-a-missing-state"])
def test_public_rules_refuse_a_subject_they_cannot_take(apply, message):
    with pytest.raises(RewriteError) as caught:
        apply(_region_machine())
    assert type(caught.value) is RewriteError
    assert caught.value.message == message


def test_repair_initial_prefers_surviving_successor():
    root = OrState(
        "Root",
        (SimpleState("I", optional=True), SimpleState("A"), SimpleState("B")),
        "I",
        (T("tb", "I", "B"), T("ta", "I", "A")))
    sc = repair_initial("Root", StateChart(root), PendingSet({"I"}))
    # Least transition name wins the tie: ta before tb.
    assert sc.root.initial == "A"


def test_repair_initial_walks_doomed_chains():
    root = OrState(
        "Root",
        (SimpleState("I", optional=True), SimpleState("J", optional=True),
         SimpleState("A")),
        "I",
        (T("t1", "I", "J"), T("t2", "J", "A")))
    pending = PendingSet({"I", "J"})
    # One call walks the whole chain I -> J -> A.
    sc = repair_initial("Root", StateChart(root), pending)
    assert sc.root.initial == "A"
    with pytest.raises(RewriteError):
        repair_initial("Root", sc, pending)  # A is not pending


def test_repair_initial_refuses_a_cycle_of_doomed_initials():
    root = OrState(
        "Root",
        (SimpleState("I", optional=True), SimpleState("J", optional=True),
         SimpleState("A")),
        "I",
        (T("t1", "I", "J"), T("t2", "J", "I"), T("t3", "A", "I")))
    with pytest.raises(NoInitialError, match="cycle"):
        repair_initial("Root", StateChart(root), PendingSet({"I", "J"}))


def test_repair_initial_without_successor_fails():
    root = OrState(
        "Root", (SimpleState("I", optional=True), SimpleState("A")), "I",
        (T("t", "A", "I"),))
    with pytest.raises(NoInitialError):
        repair_initial("Root", StateChart(root), PendingSet({"I"}))


def test_prune_conditions_strips_atoms_about_subtree():
    inner = OrState("Inner", (SimpleState("X"),), "X", optional=True)
    root = OrState(
        "Root", (SimpleState("A"), SimpleState("B"), inner), "A",
        (T("t", "A", "B", cond=Condition((Guard("g"), InState("X"),
                                          InState("B")))),))
    sc = prune_conditions("Inner", StateChart(root))
    t = MachineIndex(sc).transitions["t"]
    assert t.cond.atoms == (Guard("g"), InState("B"))


def test_delete_transition_removes_and_clears_pending():
    root = OrState(
        "Root", (SimpleState("A"), SimpleState("B")), "A",
        (T("t", "A", "B", optional=True),))
    pending = PendingSet({"t"})
    sc = delete_transition("t", StateChart(root), pending)
    assert MachineIndex(sc).transitions == {}
    assert not pending
    # Deleting an already-vanished transition is a no-op that still clears.
    pending = PendingSet({"ghost"})
    sc2 = delete_transition("ghost", sc, pending)
    assert sc2 == sc and not pending


def test_finalize_optionals_flips_all_flags():
    inner = OrState("Inner", (SimpleState("X", optional=True),), "X",
                    (T("ti", "X", "X", optional=True),), optional=True)
    root = OrState("Root", (SimpleState("A"), inner), "A",
                   (T("t", "A", "Inner", optional=True),))
    sc = finalize_optionals(StateChart(root))
    from scpl.model import var_elems
    assert var_elems(sc) == (frozenset(), frozenset())


def _sweep_inputs():
    """A machine whose optional transitions set every field, the bundled
    machine and the default generator's seeds 0-499."""
    rich = {"cond": Condition((Guard("g"), InState("X"))), "actions": ("x",),
            "optional": True}
    inner = OrState("O", (SimpleState("X"), SimpleState("Y", optional=True)),
                    "X", (T("ti", "X", "Y", ("a", "b"), history=History.DEEP,
                            **rich),), optional=True)
    par = AndState("P", (OrState("R1", (SimpleState("U"),), "U"),
                         OrState("R2", (SimpleState("V"),), "V")),
                   optional=True)
    yield StateChart(OrState(
        "Root", (SimpleState("A"), inner, par), "A",
        (T("t", "A", "O", history=History.SHALLOW, **rich),
         T("tp", "A", "P", optional=True))))
    yield datasets.mobile_phone()[1]
    for seed in range(500):
        yield generated_line(seed).sc


def test_the_sweep_writes_what_replace_would():
    # finalize_optionals builds each cleared element by its constructor;
    # every field but the flag, and the type, must survive.
    kinds: dict[type, int] = {}
    for sc in _sweep_inputs():
        tree = WorkingTree(sc)
        states, transitions = dict(tree.states), dict(tree.transitions)
        tree.finalize_optionals()
        for old_map, new_map in ((states, tree.states),
                                 (transitions, tree.transitions)):
            for name, old in old_map.items():
                new = new_map[name]
                if not old.optional:
                    assert new is old
                    continue
                assert type(new) is type(old)
                assert new == replace(old, optional=False)
                kinds[type(old)] = kinds.get(type(old), 0) + 1
    assert set(kinds) == {SimpleState, OrState, AndState, Transition}, kinds


def test_pruning_writes_what_replace_would():
    pruned = 0
    for sc in _sweep_inputs():
        tree = WorkingTree(sc)
        before = dict(tree.transitions)
        tree.prune_conditions(sorted(n for n, st in tree.states.items()
                                     if st.optional))
        for name, old in before.items():
            new = tree.transitions[name]
            if new is not old:
                assert type(new) is Transition
                assert new == replace(old, cond=new.cond)
                assert new.cond.atoms != old.cond.atoms
                pruned += 1
    assert pruned > 100
