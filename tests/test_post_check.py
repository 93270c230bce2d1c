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

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import S1K_GENERATOR, S1K_SEED, line_for
from generators import generated_line, inject_faults
from scpl import strategy
from scpl.binding import nsc
from scpl.errors import RewriteError, ScplError
from scpl.model import (AndState, Condition, InState, MachineIndex, OrState,
                        SimpleState, StateChart, TraceStep, Transition,
                        touched_violations, well_formed_violations)
from scpl.rewrite import WorkingTree, flagged
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
    delta = touched_violations(tree, tree.dirty, tree.added)
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


def _two_inner_machine():
    """Root holds A, Inner1 and Inner2; each Inner<i> holds an optional
    initial C<i> and a Y<i>, with t<i>: C<i> -> Y<i>."""
    inners = tuple(OrState(
        f"Inner{i}", (SimpleState(f"C{i}", True), SimpleState(f"Y{i}")),
        f"C{i}", (Transition(f"t{i}", f"C{i}", f"Y{i}", ("b",)),))
        for i in (1, 2))
    return StateChart(OrState(
        "Root", (SimpleState("A"), *inners), "A",
        (Transition("t0", "A", "Inner1", ("e",)),)))


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
    # Inner1 and Inner2 lose their initials C1 and C2 without a repair.
    "two-initials-removed": (_two_inner_machine(), {"C1", "C2"},
                             {"repair_initial": _no_repair,
                              "_deletion_preamble": _no_guards}),
}


def refusal(fault: str) -> str:
    """The text of the RewriteError that ``instantiate`` raises on the
    line of ``FAULTS[fault]`` under its faulty rules."""
    sc, doomed, patches = FAULTS[fault]
    fm, conf, imp = line_for(sc, doomed)
    saved = {name: getattr(WorkingTree, name) for name in patches}
    for name, fn in patches.items():
        setattr(WorkingTree, name, fn)
    try:
        instantiate(fm, conf, sc, imp)
    except RewriteError as exc:
        return str(exc)
    finally:
        for name, fn in saved.items():
            setattr(WorkingTree, name, fn)
    raise AssertionError(f"{fault} was not refused")


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


_REFUSAL = """
import sys
sys.path[:0] = sys.argv[1:]
import test_post_check
print(test_post_check.refusal("two-initials-removed"))
"""


def test_the_refusal_does_not_follow_the_hash_seed():
    # The post-check lists the breaches of the composites the edits wrote
    # in name order: a set of them iterated as it stands would order the
    # two broken Or-states by the hash seed.
    here = Path(__file__).resolve().parent
    paths = [str(here.parent / "src"), str(here)]
    texts = []
    for hash_seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        texts.append(subprocess.run(
            [sys.executable, "-c", _REFUSAL, *paths], env=env, check=True,
            capture_output=True, text=True, timeout=60).stdout)
    assert texts == [texts[0]] * 4
    assert texts[0].index("'Inner1'") < texts[0].index("'Inner2'")


@pytest.mark.parametrize("kept", ["state", "transition"])
def test_an_optional_flag_left_over_is_refused(monkeypatch, kept):
    # C is deleted; the sweep flips the flags of one kind of element
    # alone, so the optional B or t survives it flagged.
    sc = StateChart(OrState(
        "Root", (SimpleState("A"), SimpleState("B", True),
                 SimpleState("C", True)), "A",
        (Transition("t", "A", "B", ("e",), optional=True),)))
    fm, conf, imp = line_for(sc, {"C"})
    assert instantiate(fm, conf, sc, imp).statechart == StateChart(OrState(
        "Root", (SimpleState("A"), SimpleState("B")), "A",
        (Transition("t", "A", "B", ("e",)),)))

    def partial_sweep(self):
        if kept == "state":
            self.transitions = {n: flagged(t)
                                for n, t in self.transitions.items()}
        else:
            self.states = {n: flagged(st) for n, st in self.states.items()}
        return TraceStep("finalize_optionals", self.root)

    monkeypatch.setattr(WorkingTree, "finalize_optionals", partial_sweep)
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

