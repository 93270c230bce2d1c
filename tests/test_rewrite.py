import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import simple_chain
from generators import random_and_composite, random_or_composite
from oracles import and_closure, closure
from scpl.errors import (EmptyCompositeError, IsInitialError, NoInitialError,
                         NotOptionalError, NotSimpleError,
                         OptionalComposeError, RewriteError)
from scpl.model import (AndState, Condition, Guard, History, InState,
                        MachineIndex, OrState, SimpleState, StateChart,
                        Transition, canonicalize)
from scpl.rewrite import (PendingSet, comp, comp_name, delete_and_state,
                          delete_or_state, delete_simple_state,
                          delete_transition, entry_exit_pairs,
                          finalize_optionals, prune_conditions, reachable_and,
                          reachable_or, repair_initial)


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
    assert pending.remaining == {"E2"}


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
    assert pending.remaining == {"E"}


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


# --- repair, prune, transition deletion, finalize -------------------------

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
