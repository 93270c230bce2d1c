import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import line_for
from oracles import reference_confluence
from scpl import strategy
from scpl.binding import nsc
from scpl.errors import (InvalidInputError, NoInitialError, RewriteError,
                         ScplError, TooLargeError)
from scpl.model import (AndState, Configuration, ImpMapping, MachineIndex,
                        OrState, RewriteTrace, SimpleState, StateChart,
                        TraceStep, Transition, canonicalize,
                        check_well_formed, reached, var_elems)
from scpl.rewrite import WorkingTree
from scpl.strategy import (EXHAUSTIVE_CAP, check_confluence,
                           generate_random_product_line, instantiate,
                           validate_inputs)


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


@pytest.mark.parametrize("exhaustive", [False, True],
                         ids=["sampled", "exhaustive"])
def test_check_confluence_rejects_invalid_inputs(mp, mp_no_poly, exhaustive):
    fm, sc, imp = mp
    bad_conf = Configuration(mp_no_poly.selected - {"Display"},
                             mp_no_poly.edges)
    with pytest.raises(InvalidInputError):
        check_confluence(fm, bad_conf, sc, imp, exhaustive=exhaustive)


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


def test_a_transition_owned_above_the_parent_is_dropped_uncomposed():
    # The deletion's owner rule (ROADMAP item 3): x enters P from Root, the
    # owner above P's parent C, so only p is paired, and p has no entry to
    # pair with; both go and nothing is composed.
    c = OrState("C", (SimpleState("R"), SimpleState("P", optional=True)),
                "R", (Transition("p", "P", "R", ("p",)),))
    sc = StateChart(OrState("Root", (SimpleState("X"), c), "X",
                            (Transition("x", "X", "P", ("x",)),)))
    fm, conf, imp = line_for(sc, {"P"})
    result = instantiate(fm, conf, sc, imp)
    assert result.statechart == StateChart(OrState(
        "Root", (SimpleState("X"), OrState("C", (SimpleState("R"),), "R")),
        "X"))
    assert result.trace.steps[0] == TraceStep(
        "delete_simple_state", "P", removed_states=("P",),
        removed_transitions=("p", "x"))


def _crossing_line(*extra: Transition, states=()):
    """Root A -> And-state X (regions R1 = {a1, a2}, R2 = {b1}), with an
    optional E bridging R1 to R2: each composition across E would cross
    X's regions.  ``extra`` transitions follow the others in Root, and
    ``states`` follow E."""
    x = AndState("X", (
        OrState("R1", (SimpleState("a1"), SimpleState("a2")), "a1"),
        OrState("R2", (SimpleState("b1"),), "b1")))
    root = OrState(
        "Root", (SimpleState("A"), x, SimpleState("E", optional=True),
                 *states),
        "A",
        (Transition("tz", "a1", "E", ("z",)),
         Transition("ta", "a2", "E", ("a",)),
         Transition("u", "E", "b1", ("u",)),
         Transition("go", "A", "X", ("g",)), *extra))
    return StateChart(root)


def test_composition_error_names_the_least_named_crossing():
    # tz -> u comes first in machine order, but comp(ta,u) is the
    # least-named composition, so its ends are the ones reported.
    sc = _crossing_line()
    assert check_well_formed(sc) == []
    fm, conf, imp = line_for(sc, {"E"})
    with pytest.raises(RewriteError) as err:
        instantiate(fm, conf, sc, imp)
    assert str(err.value) == (
        "composition 'a2' -> 'b1' would cross regions of 'X'")


def test_composition_error_without_a_common_ancestor():
    # Ghost is no state: an unvalidated machine may still name it, and
    # comp(g2,u) sorts before every other composition across E.
    sc = _crossing_line(Transition("g2", "Ghost", "E", ("h",)))
    fm, conf, imp = line_for(sc, {"E"})
    with pytest.raises(RewriteError) as err:
        instantiate(fm, conf, sc, imp, validate=False)
    assert str(err.value) == "no common ancestor for 'Ghost' and 'b1'"


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


@pytest.mark.parametrize("trials", [0, -4])
def test_check_confluence_refuses_fewer_than_one_trial(mp, mp_no_poly,
                                                       monkeypatch, trials):
    def unreachable(*args, **kwargs):
        raise AssertionError("trials must be checked first")

    monkeypatch.setattr(strategy, "input_violations", unreachable)
    monkeypatch.setattr(strategy, "_rewrite", unreachable)
    fm, sc, imp = mp
    with pytest.raises(InvalidInputError) as caught:
        check_confluence(fm, mp_no_poly, sc, imp, trials=trials)
    assert caught.value.message == (
        f"invalid input: trials: must be at least 1, got {trials}")


def _line_dooming(n: int, *transitions: Transition):
    """A line whose NSC holds ``n`` optional simple states S0, S1, ...,
    with the given transitions in Root."""
    doomed = [f"S{i}" for i in range(n)]
    sc = StateChart(OrState(
        "Root", (SimpleState("A"), *(SimpleState(s, True) for s in doomed)),
        "A", transitions))
    fm, conf, imp = line_for(sc, doomed)
    return fm, conf, sc, imp


def test_exhaustive_confluence_refuses_more_than_the_cap(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("no order may run past the cap")

    monkeypatch.setattr(strategy, "_rewrite", unreachable)
    with pytest.raises(TooLargeError, match="exhaustive cap of 8"):
        check_confluence(*_line_dooming(EXHAUSTIVE_CAP + 1), exhaustive=True)


def test_exhaustive_confluence_runs_every_order_at_the_cap(monkeypatch):
    # All 8 doomed states are eligible for layer 2 and share no
    # transition, but the stub's reference outcome is an error, so every
    # order is keyed by its whole layer-2 projection and none is skipped.
    calls = [0]

    def failing(*args, **kwargs):
        calls[0] += 1
        raise RewriteError("stub")

    monkeypatch.setattr(strategy, "_rewrite", failing)
    report = check_confluence(*_line_dooming(EXHAUSTIVE_CAP), exhaustive=True)
    assert report.confluent
    assert report.trials == calls[0] == 40_320


@pytest.mark.parametrize("transitions, runs", [
    ((), 1),
    ((Transition("s01", "S0", "S1", ("a",)),
      Transition("s12", "S1", "S2", ("b",))), 6),
])
def test_confluence_runs_only_orders_of_interacting_deletions(
        monkeypatch, transitions, runs):
    # Three doomed siblings: with no transition between them every order
    # ends alike and only the first runs; chained, they form one group
    # and each of the 3! orders has a projection of its own.
    line = _line_dooming(3, *transitions)
    expected = reference_confluence(*line, exhaustive=True)
    calls = [0]
    rewrite = strategy._rewrite

    def counted(*args, **kwargs):
        calls[0] += 1
        return rewrite(*args, **kwargs)

    monkeypatch.setattr(strategy, "_rewrite", counted)
    report = check_confluence(*line, exhaustive=True)
    assert report == expected
    assert report.confluent and report.trials == 6
    assert calls[0] == runs


@pytest.mark.parametrize("transitions, shuffles", [
    ((), 0),
    ((Transition("s01", "S0", "S1", ("a",)),
      Transition("s12", "S1", "S2", ("b",))), 7),
])
def test_confluence_shuffles_only_the_orders_it_reads(
        monkeypatch, transitions, shuffles):
    # With no group of two interacting states the check returns right
    # after the reference and draws no shuffle; chained, the three states
    # form one group, and the check draws no order after the eighth,
    # which runs the last of the 3! keys.
    line = _line_dooming(3, *transitions)
    expected = reference_confluence(*line, trials=10, seed=11)
    calls = [0]
    shuffle = random.Random.shuffle

    def counted(self, x):
        calls[0] += 1
        return shuffle(self, x)

    monkeypatch.setattr(random.Random, "shuffle", counted)
    assert check_confluence(*line, trials=10, seed=11) == expected
    assert calls[0] == shuffles


def _two_states(*triggers: str) -> StateChart:
    """Root holds A and B, with one transition A -> B per trigger."""
    return StateChart(OrState(
        "Root", (SimpleState("A"), SimpleState("B")), "A",
        tuple(Transition(f"t{i}", "A", "B", (e,))
              for i, e in enumerate(triggers))))


def test_divergent_outcomes_name_the_field_that_differs(monkeypatch):
    triggers = iter("ab")

    def rewrite(tree, *args, **kwargs):
        # An order's outcome is the tree it edited.
        tree._add_transition(Transition("t0", "A", "S0", (next(triggers),)),
                             "Root")
        return RewriteTrace()

    monkeypatch.setattr(strategy, "_rewrite", rewrite)
    # The two doomed states share a transition, so they form one group and
    # both of their orders run.
    report = check_confluence(
        *_line_dooming(2, Transition("s01", "S0", "S1", ("s",))),
        exhaustive=True)
    assert not report.confluent
    assert report.divergent_outcomes == ("transition t0 trigger: ('a',)",
                                         "transition t0 trigger: ('b',)")


def test_outcome_diff_is_capped_and_summarises_errors():
    few = MachineIndex(_two_states("a"))
    many = MachineIndex(_two_states(*"abcdef"))
    left, right = strategy._diff(few, many)
    assert left.splitlines() == ["transition t1: absent",
                                 "transition t2: absent",
                                 "transition t3: absent",
                                 "transition t4: absent",
                                 "... and 1 more"]
    assert right.splitlines()[0] == "transition t1: present"
    assert strategy._diff("error:no_initial", few) == (
        "error:no_initial", "machine with 3 states and 1 transitions")


def _outcomes(line, orders, include_pending=False):
    """Per order, the outcome ``check_confluence`` compares (``_shape``)
    and the canonical machine of the frozen tree, or the error code."""
    doomed = nsc(line.fm, line.conf, line.sc, line.imp)
    out = []
    for order in orders:
        tree = WorkingTree(line.sc)
        try:
            strategy._rewrite(tree, doomed, order, include_pending,
                              validated=True)
        except ScplError as exc:
            out.append((exc.code, exc.code))
            continue
        out.append((strategy._shape(tree), canonicalize(tree.freeze())))
    return out


# The large band of the confluence benchmark: |NSC| of 6 to 12 is common.
LARGE_BAND = {"max_depth": 3, "max_substates": 6, "max_features": 12}

# Lines on which some orders give different machines (ROADMAP item 1).
DIVERGENT_LINES = [
    (1500397, LARGE_BAND),
    (1500787, LARGE_BAND),
    (5697, {"max_depth": 2, "max_substates": 4, "max_features": 6}),
    # The smallest found on the default generator: NSC {S2, S3, t05}.
    (1061, {}),
]


def test_a_doomed_detour_is_divergent_by_order():
    # The smallest known divergent line (ROADMAP item 1): deleting Q first
    # drops the composed self-loop comp(pq,qp) on P, while deleting P
    # first keeps the detour as two halves that compose later.  This pins
    # today's defect, as ``divergent == 4`` does below: the fix flips it,
    # and CHANGES.md must say so.
    sc = StateChart(OrState(
        "Root", (SimpleState("A"), SimpleState("P", True),
                 SimpleState("Q", True), SimpleState("B")), "A",
        (Transition("a", "A", "P", ("a",)),
         Transition("pq", "P", "Q", ("b",)),
         Transition("qp", "Q", "P", ("c",)),
         Transition("pb", "P", "B", ("d",)))))
    fm, conf, imp = line_for(sc, {"P", "Q"})
    line = (fm, conf, sc, imp)
    composed = {
        order: set(MachineIndex(
            instantiate(*line, order=order).statechart).transitions)
        for order in (("P", "Q"), ("Q", "P"))}
    assert composed == {("P", "Q"): {"comp(a,pb)", "comp(a,pq,qp,pb)"},
                        ("Q", "P"): {"comp(a,pb)"}}
    report = _parity(line, exhaustive=True)
    assert not report.confluent
    assert report.divergent_orders == (("P", "Q"), ("Q", "P"))
    assert report.divergent_outcomes == (
        "transition comp(a,pq,qp,pb): present",
        "transition comp(a,pq,qp,pb): absent")


def test_tree_comparison_agrees_with_canonical_machines():
    lines = [(seed, {}) for seed in range(300)] + DIVERGENT_LINES
    unequal = 0
    for seed, generator in lines:
        line = generate_random_product_line(seed, **generator)
        base = sorted(nsc(line.fm, line.conf, line.sc, line.imp))
        rng = random.Random(seed)
        orders = [base, base[::-1]] + [rng.sample(base, len(base))
                                       for _ in range(20)]
        outcomes = _outcomes(line, orders)
        for i, (shape_a, canon_a) in enumerate(outcomes):
            for shape_b, canon_b in outcomes[:i]:
                assert (shape_a == shape_b) == (canon_a == canon_b), seed
                unequal += canon_a != canon_b
    assert unequal > 0


def _eligible(line, doomed) -> set[str]:
    """The states layer 2 deletes: doomed, with no doomed ancestor."""
    idx = MachineIndex(line.sc)
    return {n for n in doomed if n in idx.states
            and not any(a in doomed for a in idx.ancestors(n))}


def _orders_projecting_to(rng, base, projections, count):
    """``count`` random orders of ``base`` whose restriction to each
    projection's names is that projection: a shuffle with each
    projection's slots refilled in its order."""
    out = []
    for _ in range(count):
        order = rng.sample(base, len(base))
        for projection in projections:
            names = set(projection)
            slots = [i for i, name in enumerate(order) if name in names]
            for i, name in zip(slots, projection):
                order[i] = name
        out.append(order)
    return out


@pytest.mark.parametrize("include_pending", [False, True])
def test_orders_with_one_layer_two_projection_end_alike(include_pending):
    # check_confluence runs one order per layer-2 projection; that is
    # sound only if the rest of an order never changes its outcome.
    compared = 0
    for seed, generator in [(seed, {}) for seed in range(300)] \
            + DIVERGENT_LINES:
        line = generate_random_product_line(seed, **generator)
        doomed = nsc(line.fm, line.conf, line.sc, line.imp)
        base = sorted(doomed)
        eligible = _eligible(line, doomed)
        if len(eligible) == len(base):
            continue  # every order is its own projection
        rng = random.Random(seed)
        for _ in range(2):
            projection = rng.sample(sorted(eligible), len(eligible))
            orders = _orders_projecting_to(rng, base, [projection], 4)
            shapes = [shape for shape, _ in
                      _outcomes(line, orders, include_pending)]
            assert all(shape == shapes[0] for shape in shapes), seed
            compared += len(set(map(tuple, orders))) - 1
    assert compared > 300


def _groups(line, eligible) -> list[set[str]]:
    """The eligible states in groups, two groups merged whenever a
    transition has an end in a subtree of each."""
    idx = MachineIndex(line.sc)
    groups = [{n} for n in sorted(eligible)]
    home = {s: n for n in eligible for s in reached(n, idx.children)}
    for t in idx.transitions.values():
        ends = {home.get(t.source), home.get(t.target)} - {None}
        if len(ends) == 2:
            merged = set().union(*(g for g in groups if g & ends))
            groups = [g for g in groups if not g & ends] + [merged]
    return groups


@pytest.mark.parametrize("include_pending", [False, True])
def test_confluence_orders_with_one_projection_per_group_end_alike(
        include_pending):
    # check_confluence runs one order per projection onto each group of
    # interacting layer-2 states when the reference outcome is a tree;
    # that is sound only if interleaving the groups never changes it.
    lines = ([(seed, {}) for seed in range(300)] + DIVERGENT_LINES
             + [(seed, LARGE_BAND) for seed in range(1_500_000, 1_500_100)])
    compared = 0
    for seed, generator in lines:
        line = generate_random_product_line(seed, **generator)
        doomed = nsc(line.fm, line.conf, line.sc, line.imp)
        eligible = _eligible(line, doomed)
        groups = _groups(line, eligible)
        if len(groups) < 2:
            continue  # every order of the eligible states is a projection
        rng = random.Random(seed)
        base = rng.sample(sorted(doomed), len(doomed))
        projections = [[n for n in base if n in g] for g in groups]
        orders = [base] + _orders_projecting_to(rng, base, projections, 6)
        shapes = [shape for shape, _ in
                  _outcomes(line, orders, include_pending)]
        if isinstance(shapes[0], str):
            continue  # an error reference keys orders by all of layer 2
        assert all(shape == shapes[0] for shape in shapes), seed
        layer_two = [[n for n in order if n in eligible] for order in orders]
        compared += sum(p != layer_two[0] for p in layer_two[1:])
    assert compared > 300


def _name_clash_line():
    """Root A -> Z -> B by e and x, and a user transition comp(e,x) from Y
    to B; Y and Z are doomed and share no transition.  Deleting Y first
    drops comp(e,x) before Z composes e with x; deleting Z first composes
    a second comp(e,x), which clashes."""
    sc = StateChart(OrState(
        "Root", (SimpleState("A"), SimpleState("Y", True),
                 SimpleState("Z", True), SimpleState("B")), "A",
        (Transition("e", "A", "Z", ("e",)),
         Transition("x", "Z", "B", ("x",)),
         Transition("comp(e,x)", "Y", "B", ("y",)))))
    fm, conf, imp = line_for(sc, {"Y", "Z"})
    return fm, conf, sc, imp


def _error_reference_line():
    """The crossing line plus And-state W with regions W1 and optional W2
    and W3.  E, W2 and W3 are doomed and share no transition: deleting E
    first fails on the crossing, deleting W2 and W3 first fails on W's
    last two regions."""
    w = AndState("W", (
        OrState("W1", (SimpleState("w1"),), "w1"),
        OrState("W2", (SimpleState("w2"),), "w2", optional=True),
        OrState("W3", (SimpleState("w3"),), "w3", optional=True)))
    sc = _crossing_line(states=(w,))
    fm, conf, imp = line_for(sc, {"E", "W2", "W3"})
    return fm, conf, sc, imp


@pytest.mark.parametrize("build, orders, codes", [
    (_name_clash_line, [("Y", "Z"), ("Z", "Y")], [None, "E_REWRITE"]),
    (_error_reference_line, [("E", "W2", "W3"), ("W2", "W3", "E")],
     ["E_REWRITE", "E_EMPTY_COMPOSITE"]),
])
def test_confluence_keys_order_dependent_lines_by_all_of_layer_two(
        build, orders, codes):
    # Their doomed states share no transition, yet the order matters: a
    # composition's name clash, or which error surfaces first.  Both
    # lines fall back to the whole layer-2 projection as the key.
    line = build()
    assert validate_inputs(*line) == []
    for order, code in zip(orders, codes):
        try:
            instantiate(*line, order=order)
            got = None
        except ScplError as exc:
            got = exc.code
        assert got == code
    report = _parity(line, exhaustive=True)
    assert not report.confluent


def test_paper_literal_changes_the_machine_alike_in_every_order():
    # Only the pending p leads from O's initial X to Y, where out leaves:
    # the literal reading composes in with out across O, the default
    # does not, and each reading gives one machine in every order.
    o = OrState("O", (SimpleState("X"), SimpleState("Y")), "X",
                (Transition("p", "X", "Y", ("p",), optional=True),),
                optional=True)
    sc = StateChart(OrState(
        "Root", (SimpleState("A"), o, SimpleState("B")), "A",
        (Transition("in", "A", "O", ("i",)),
         Transition("out", "Y", "B", ("o",)))))
    fm, conf, imp = line_for(sc, {"O", "p"})
    for include_pending in (False, True):
        result = instantiate(fm, conf, sc, imp,
                             include_pending=include_pending)
        names = set(MachineIndex(result.statechart).transitions)
        assert names == ({"comp(in,out)"} if include_pending else set())
        report = _parity((fm, conf, sc, imp), exhaustive=True,
                         include_pending=include_pending)
        assert report.confluent and report.trials == 2


def _parity(line, **kwargs):
    report = check_confluence(*line, **kwargs)
    assert report == reference_confluence(*line, **kwargs)
    return report


@pytest.mark.parametrize("include_pending", [False, True])
def test_check_confluence_reports_as_the_reference(include_pending):
    divergent = 0
    for seed in range(200):
        line = generate_random_product_line(seed)
        if len(nsc(line.fm, line.conf, line.sc, line.imp)) <= 5:
            _parity(line, exhaustive=True, include_pending=include_pending)
        else:
            _parity(line, trials=30, seed=seed,
                    include_pending=include_pending)
    for seed in range(1_500_000, 1_500_100):
        line = generate_random_product_line(seed, **LARGE_BAND)
        _parity(line, trials=10, seed=11, include_pending=include_pending)
        # Exhaustively, where both early exits can cut the orders short.
        if len(nsc(line.fm, line.conf, line.sc, line.imp)) <= 6:
            _parity(line, exhaustive=True, include_pending=include_pending)
    for seed, generator in DIVERGENT_LINES:
        line = generate_random_product_line(seed, **generator)
        report = _parity(line, trials=200, include_pending=include_pending)
        divergent += not report.confluent
    # Every DIVERGENT_LINES entry diverges today (ROADMAP item 1); the fix
    # lowers this count on purpose.
    assert divergent == 4


def test_a_layer_1_failure_is_every_orders_outcome(monkeypatch):
    # Both doomed states can only reach each other: repairing Root's
    # initial marker fails in layer 1, whatever the order.
    sc = StateChart(OrState(
        "Root", (SimpleState("I", True), SimpleState("J", True),
                 SimpleState("A")), "I",
        (Transition("ij", "I", "J", ("a",)),
         Transition("ji", "J", "I", ("b",)))))
    fm, conf, imp = line_for(sc, {"I", "J"})
    with pytest.raises(NoInitialError):
        instantiate(fm, conf, sc, imp)
    # The error is the reference outcome, so orders are keyed by their
    # whole layer-2 projection: both run, and their outcomes are compared.
    outcomes = []
    rewrite = strategy._rewrite

    def spied(tree, doomed, order, *args, **kwargs):
        try:
            return rewrite(tree, doomed, order, *args, **kwargs)
        except ScplError as exc:
            outcomes.append((order, f"error:{exc.code}"))
            raise

    monkeypatch.setattr(strategy, "_rewrite", spied)
    report = check_confluence(fm, conf, sc, imp, exhaustive=True)
    assert outcomes == [(("I", "J"), "error:E_NO_INITIAL"),
                        (("J", "I"), "error:E_NO_INITIAL")]
    assert report == reference_confluence(fm, conf, sc, imp, exhaustive=True)
    assert report.confluent and report.trials == 2


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
