import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import line_for
from scpl.errors import InvalidInputError
from scpl.model import (Configuration, ImpMapping, MachineIndex, OrState,
                        SimpleState, StateChart, Transition, canonicalize,
                        check_well_formed, var_elems)
from scpl.strategy import (check_confluence, generate_random_product_line,
                           instantiate, validate_inputs)


def test_full_selection_is_finalize_only(mp, mp_full):
    fm, sc, imp = mp
    result = instantiate(fm, mp_full, sc, imp)
    assert [s.rule for s in result.trace] == ["finalize_optionals"]
    assert var_elems(result.statechart) == (frozenset(), frozenset())
    # Same shape as the input, only the flags flipped.
    from scpl.rewrite import finalize_optionals
    assert result.statechart == finalize_optionals(sc)


def test_golden_instantiation_trace(mp, mp_no_poly):
    fm, sc, imp = mp
    result = instantiate(fm, mp_no_poly, sc, imp)
    rules = [(s.rule, s.subject) for s in result.trace]
    assert rules[0] == ("prune_conditions", "MessagesState")
    assert ("delete_simple_state", "SelectPolSound") in rules
    assert ("delete_simple_state", "ToChoosePolSound") in rules
    assert ("delete_simple_state", "MessagesState") in rules
    assert rules[-1][0] == "finalize_optionals"
    idx = MachineIndex(result.statechart)
    present = set(idx.states) | set(idx.transitions)
    assert not present & {
        "SelectPolSound", "ToChoosePolSound", "MessagesState",
        "TRightMultimediaType-SelectPolSound",
        "TRightSoundType-ToChoosePolSound",
        "TLeftToChoosePolSound-SoundType",
        "TRightToChoosePolSound-PhoneFuncionalidad",
        "TMessage-MainDisplay-IncomingMess",
    }
    assert var_elems(result.statechart) == (frozenset(), frozenset())
    assert check_well_formed(result.statechart) == []


def test_prune_runs_before_state_deletions(mp, mp_no_poly):
    fm, sc, imp = mp
    trace = instantiate(fm, mp_no_poly, sc, imp).trace
    rules = [s.rule for s in trace]
    first_delete = rules.index("delete_simple_state")
    assert rules.index("prune_conditions") < first_delete


def test_instantiate_rejects_invalid_inputs(mp, mp_no_poly):
    fm, sc, imp = mp
    bad_conf = Configuration(mp_no_poly.selected - {"Display"},
                             mp_no_poly.edges)
    with pytest.raises(InvalidInputError):
        instantiate(fm, bad_conf, sc, imp)


def test_chain_composes_fully():
    root = OrState(
        "Root",
        (SimpleState("A"), SimpleState("E1", optional=True),
         SimpleState("E2", optional=True), SimpleState("B")),
        "A",
        (Transition("t1", "A", "E1", ("a",)),
         Transition("t2", "E1", "E2", ("b",)),
         Transition("t3", "E2", "B", ("c",))))
    fm, conf, imp = line_for(StateChart(root), {"E1", "E2"})
    result = instantiate(fm, conf, StateChart(root), imp)
    idx = MachineIndex(result.statechart)
    assert set(idx.transitions) == {"comp(t1,t2,t3)"}
    t = idx.transitions["comp(t1,t2,t3)"]
    assert (t.source, t.target, t.trigger) == ("A", "B", ("a", "b", "c"))


def test_repair_initial_chain_coalesces_into_one_step():
    root = OrState(
        "Root",
        (SimpleState("I", optional=True), SimpleState("J", optional=True),
         SimpleState("A")),
        "I",
        (Transition("t1", "I", "J", ("a",)),
         Transition("t2", "J", "A", ("b",))))
    fm, conf, imp = line_for(StateChart(root), {"I", "J"})
    result = instantiate(fm, conf, StateChart(root), imp)
    repairs = [s for s in result.trace if s.rule == "repair_initial"]
    assert len(repairs) == 1
    assert repairs[0].detail == "initial I -> A"
    assert result.statechart.root.initial == "A"


def test_rerun_on_product_is_identity_up_to_finalize(mp, mp_no_poly, mp_full):
    fm, sc, imp = mp
    product = instantiate(fm, mp_no_poly, sc, imp).statechart
    again = instantiate(fm, mp_no_poly, product, ImpMapping())
    assert again.statechart == product
    assert [s.rule for s in again.trace] == ["finalize_optionals"]


def test_order_override_changes_nothing(mp, mp_no_poly):
    fm, sc, imp = mp
    default = instantiate(fm, mp_no_poly, sc, imp).statechart
    reverse = instantiate(fm, mp_no_poly, sc, imp,
                          order=sorted(
                              {"MessagesState", "SelectPolSound",
                               "ToChoosePolSound",
                               "TMessage-MainDisplay-IncomingMess"},
                              reverse=True)).statechart
    assert canonicalize(default) == canonicalize(reverse)


def test_check_confluence_on_golden(mp, mp_no_poly):
    fm, sc, imp = mp
    report = check_confluence(fm, mp_no_poly, sc, imp, trials=50, seed=7)
    assert report.confluent
    assert report.trials == 50
    assert report.nsc_size == 8


def test_check_confluence_single_trial_is_trivially_confluent(mp, mp_no_poly):
    fm, sc, imp = mp
    report = check_confluence(fm, mp_no_poly, sc, imp, trials=1)
    assert report.confluent and report.trials == 1


def test_generator_is_reproducible():
    a = generate_random_product_line(424242)
    b = generate_random_product_line(424242)
    assert a == b


def test_generator_degenerate_limits():
    line = generate_random_product_line(5, max_depth=1, max_substates=1,
                                        max_features=1)
    assert validate_inputs(*line) == []


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_generator_soundness(seed):
    line = generate_random_product_line(seed)
    assert validate_inputs(line.fm, line.conf, line.sc, line.imp) == []


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_generated_lines_instantiate_cleanly(seed):
    line = generate_random_product_line(seed)
    result = instantiate(line.fm, line.conf, line.sc, line.imp)
    assert var_elems(result.statechart) == (frozenset(), frozenset())
    assert check_well_formed(result.statechart) == []
