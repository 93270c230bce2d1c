"""The post-checks of ``instantiate`` agree with a full well-formedness
check of its output.

``instantiate`` checks the edited working tree, read from its maps, before
freezing it: validated input only where the edits touched it
(``model.touched_violations``), other input whole
(``model.well_formed_violations`` on the tree).  Both must agree with the
full check on a fresh index of the frozen output on every output the rules
produce, and all three must object to the outputs of faulty rules.  Input
that was not validated must end in a machine or a typed error, never in a
raw exception.
"""

import random

import pytest

from conftest import S1K_GENERATOR, S1K_SEED, line_for
from generators import generated_line, inject_faults
from scpl import strategy
from scpl.binding import nsc
from scpl.errors import RewriteError, ScplError
from scpl.model import (AndState, Condition, InState, MachineIndex, OrState,
                        SimpleState, StateChart, TraceStep, Transition,
                        touched_violations, well_formed_violations)
from scpl.rewrite import WorkingTree
from scpl.strategy import instantiate


def _all_checks(fm, conf, sc, imp) -> tuple[list[str], ...]:
    """Runs the rules on a working tree of a valid line, then the check
    over the edits and the whole check on the tree as the rules left it,
    failed or not, and the whole check on a fresh index of its frozen
    machine."""
    assert strategy.validate_inputs(fm, conf, sc, imp) == []
    tree = WorkingTree(sc)
    try:
        strategy._rewrite(tree, nsc(fm, conf, sc, imp), None, False,
                          validated=True)
    except RewriteError:
        pass
    delta = touched_violations(tree, tree.reshaped, tree.added)
    edited = well_formed_violations(tree)
    full = well_formed_violations(MachineIndex(tree.freeze()))
    return tuple(sorted(map(str, found)) for found in (delta, edited, full))


def test_checks_agree_on_generated_lines():
    touched = 0
    for seed in range(500):
        line = generated_line(seed)
        assert _all_checks(*line) == ([], [], []), seed
        touched += bool(nsc(line.fm, line.conf, line.sc, line.imp))
    assert touched > 100


def test_checks_agree_on_the_s1k_line():
    line = generated_line(S1K_SEED, **S1K_GENERATOR)
    assert _all_checks(*line) == ([], [], [])


# --- faulty rules -----------------------------------------------------------

def _inner_machine(*, inner_initial: str = "X", atom: bool = False):
    """Root holds A and Inner; Inner holds X, an optional C and Y, with
    tx: X -> C (optionally conditioned on C itself) and ty: C -> Y."""
    cond = Condition((InState("C"),)) if atom else Condition()
    inner = OrState(
        "Inner", (SimpleState("X"), SimpleState("C", True), SimpleState("Y")),
        inner_initial,
        (Transition("tx", "X", "C", ("a",), cond),
         Transition("ty", "C", "Y", ("b",))))
    return StateChart(OrState(
        "Root", (SimpleState("A"), inner), "A",
        (Transition("t1", "A", "Inner", ("e",)),)))


def _and_machine():
    """Root holds A and Par, an And-state of two regions, R2 optional."""
    par = AndState("Par", (
        OrState("R1", (SimpleState("P"),), "P"),
        OrState("R2", (SimpleState("U"),), "U", optional=True)))
    return StateChart(OrState(
        "Root", (SimpleState("A"), par), "A",
        (Transition("t1", "A", "Par", ("e",)),)))


def _no_guards(self, elem, pending):
    return self.states[elem], self.parent[elem]


def _no_repair(self, parent, pending):
    return TraceStep("repair_initial", parent)


def _no_pruning(self, names):
    return []


def _owned_by_root(self, source, target):
    return self.root


FAULTS = {
    # A composition between two states of Inner is owned by Root.
    "wrong-owner": (_inner_machine(), {"C"},
                    {"_lca_or_owner": _owned_by_root}),
    # Inner's initial C is deleted without a repair.
    "initial-removed": (_inner_machine(inner_initial="C"), {"C"},
                        {"repair_initial": _no_repair,
                         "_deletion_preamble": _no_guards}),
    # Par loses R2 and is left with one region.
    "one-region": (_and_machine(), {"R2"},
                   {"_deletion_preamble": _no_guards}),
    # tx's atom naming C survives into comp(tx,ty) after C is deleted.
    "atom-names-deleted": (_inner_machine(atom=True), {"C"},
                           {"prune_conditions": _no_pruning}),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_both_checks_object_to_a_faulty_rule(monkeypatch, fault):
    sc, doomed, patches = FAULTS[fault]
    fm, conf, imp = line_for(sc, doomed)
    assert _all_checks(fm, conf, sc, imp) == ([], [], [])
    for name, fn in patches.items():
        monkeypatch.setattr(WorkingTree, name, fn)
    delta, edited, full = _all_checks(fm, conf, sc, imp)
    assert delta and delta == edited == full
    for validate in (True, False):
        with pytest.raises(RewriteError, match="inconsistent machine"):
            instantiate(fm, conf, sc, imp, validate=validate)


# --- input that was not validated ------------------------------------------

def test_a_transition_owned_inside_a_deleted_state_goes_with_it():
    # X owns t, whose ends lie outside X: an ill-formed machine, which
    # deleting X must still leave without t.
    x = OrState("X", (SimpleState("B"),), "B",
                (Transition("t", "A", "C", ("e",), optional=True),),
                optional=True)
    sc = StateChart(OrState(
        "Root", (SimpleState("A"), x, SimpleState("C")), "A"))
    fm, conf, imp = line_for(sc, {"X", "t"})
    result = instantiate(fm, conf, sc, imp, validate=False)
    assert MachineIndex(result.statechart).transitions == {}
    removed = [step.removed_transitions for step in result.trace
               if step.rule == "delete_or_state"]
    assert removed == [("t",)]


@pytest.mark.parametrize("seed", [212, 301, 510, 704, 1441, 1526, 2074,
                                  2384, 2841])
def test_a_faulty_machine_instantiates_or_raises_a_typed_error(seed):
    # Seeds whose fault-injected machine once ended in a raw KeyError.
    line = generated_line(seed)
    sc = inject_faults(line.sc, random.Random(seed))
    try:
        instantiate(line.fm, line.conf, sc, line.imp, validate=False)
    except ScplError:
        pass


def test_repeated_names_are_refused_without_validation():
    sc = StateChart(OrState(
        "Root", (SimpleState("A"), OrState("In", (SimpleState("A"),), "A")),
        "A"))
    fm, conf, imp = line_for(sc, set())
    with pytest.raises(RewriteError, match="duplicate state name"):
        instantiate(fm, conf, sc, imp, validate=False)

