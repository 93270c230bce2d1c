"""The post-check over the edits agrees with the full well-formedness check.

``instantiate`` checks the output of validated input only where its edits
touched it (``model.touched_violations``), and the full check
(``model.well_formed_violations`` on an index of the output) is kept for
``validate=False``.  Both must agree on every output the rules produce,
and both must object to the outputs of faulty rules.
"""

import pytest

from conftest import S1K_GENERATOR, S1K_SEED, line_for
from scpl import strategy
from scpl.binding import nsc
from scpl.errors import RewriteError
from scpl.model import (AndState, Condition, InState, MachineIndex, OrState,
                        SimpleState, StateChart, TraceStep, Transition,
                        touched_violations, well_formed_violations)
from scpl.rewrite import WorkingTree
from scpl.strategy import generate_random_product_line, instantiate


def _both_checks(fm, conf, sc, imp) -> tuple[list[str], list[str]]:
    """Runs the rules on a working tree of a valid line, then both checks
    on the tree as the rules left it, failed or not."""
    assert strategy.validate_inputs(fm, conf, sc, imp) == []
    tree = WorkingTree(sc)
    try:
        strategy._rewrite(tree, nsc(fm, conf, sc, imp), None, False,
                          validated=True)
    except RewriteError:
        pass
    delta = touched_violations(tree, tree.reshaped, tree.added)
    full = well_formed_violations(MachineIndex(tree.freeze()))
    return sorted(map(str, delta)), sorted(map(str, full))


def test_checks_agree_on_generated_lines():
    touched = 0
    for seed in range(500):
        line = generate_random_product_line(seed)
        assert _both_checks(*line) == ([], []), seed
        touched += bool(nsc(line.fm, line.conf, line.sc, line.imp))
    assert touched > 100


def test_checks_agree_on_the_s1k_line():
    line = generate_random_product_line(S1K_SEED, **S1K_GENERATOR)
    assert _both_checks(*line) == ([], [])


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
    assert _both_checks(fm, conf, sc, imp) == ([], [])
    for name, fn in patches.items():
        monkeypatch.setattr(WorkingTree, name, fn)
    delta, full = _both_checks(fm, conf, sc, imp)
    assert delta and delta == full
    for validate in (True, False):
        with pytest.raises(RewriteError, match="inconsistent machine"):
            instantiate(fm, conf, sc, imp, validate=validate)

