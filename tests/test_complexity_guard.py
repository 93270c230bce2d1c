"""Guards against whole-machine work creeping back into the rewrite steps.

One instantiation walks its input at most once, into the working tree
that validation reads and the rules edit a copy of, and rebuilds the
machine once, never once per rule application; its output is checked on
the copy, over the edits alone or, without validation, whole.  A
machine object's first instantiation builds the tree it keeps, and every
instantiation rewrites a copy of the kept tree, so later ones build
none; a copy shares the kept tree's inner dicts and sets and copies one
only to write it, from the first call on.  A kept call freezes only the
composites it changed and their ancestors, and its pruning reads only
transitions whose in-state atoms name a state.  These guards run on deep
copies of the session's shared lines, since an earlier test may have
instantiated the shared objects.  A confluence check indexes and
validates its input once, not once per order, keeps that tree for the
next instantiation of the machine, runs the four layers once per
distinct order of the layer-2 state deletions, and not at all with fewer
than two states eligible for layer 2, draws no order after the last
distinct one has run, and compares the trees it edited without
rebuilding a machine.  Parsing walks the machine once and rebuilds it
only to resolve a dotted path, and the command line builds its argument
parser once per process.  None of these, nor the product-line generator
that ``scpl fuzz`` runs per seed, nor a command that writes a JSON
document, leaves a reference cycle behind.  A layer-2 state deletion
walks its subtree at most once per machine object, to find what it
reads, and resolves a coordinate of a region by walking up from the name
asked about, never down the subtree.  Deleting an And-state builds the
moves only of the regions its exits leave from and of those they wait
on (an in-state atom of a move naming a state of another region),
closes a region that waits on none as a plain graph, and searches tuples
only for a region with the regions it waits on, never the product of all
regions; within an instantiation no region waits on another, since
layer 1 prunes every in-state atom that names a state inside a doomed
one, so it searches no tuples.  A tuple search stops at a budget.  The
feature checks accept a valid model and configuration without sorting
anything.  Writing a product line spells its machine out
without the generic JSON writer, so that writer runs as often for any
machine, and an initial-marker repair looks, per hop, at the transitions
leaving the marked substate alone.  A composition's name costs its own
length: the inner text of each composed name is sliced out, not split
and joined.
"""

import argparse
import contextlib
import copy
import gc
import io
import json
import random
import sys
import time
from importlib import resources
from math import factorial

import pytest

import scpl.features
import scpl.formats
import scpl.model
import scpl.rewrite
import scpl.strategy
from conftest import S1K_GENERATOR, S1K_SEED, line_for
from generators import generated_line
from oracles import reference_confluence
from scpl import cli, datasets
from scpl.errors import NoInitialError, ScplError, TooLargeError
from scpl.formats import (export_dot, parse_product_line,
                          serialize_configuration, serialize_product_line)
from scpl.model import (AndState, Condition, Configuration, FeatureModel,
                        ImpEntry, ImpMapping, InState, MachineIndex, OrState,
                        SimpleState, StateChart, Transition, canonicalize)
from scpl.rewrite import (PendingSet, WorkingTree, delete_and_state,
                          reachable_and)
from scpl.strategy import (EXHAUSTIVE_CAP, check_confluence,
                           generate_random_product_line, instantiate)

MP_TEXT = resources.files("scpl.data.mobile_phone").joinpath(
    "mp.pl.json").read_text(encoding="utf-8")


def _count_calls(monkeypatch, owner, name: str) -> list[int]:
    """Wraps a method or a module's function by a counter, so that every
    call counts, a subclass's included: an index walk through the working
    tree's constructor counts as a ``MachineIndex.__init__`` call."""
    orig = getattr(owner, name)
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _count_function(monkeypatch, name: str) -> list[int]:
    """Wraps a library function by a counter in every ``scpl`` module that
    binds it."""
    orig = getattr(scpl.model, name)
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "scpl" and \
                getattr(module, name, None) is orig:
            monkeypatch.setattr(module, name, counting)
    return calls


def _fresh_s1k():
    """A deep copy of the 1k-state line: a machine object no test has
    instantiated, so nothing is kept on it yet."""
    return copy.deepcopy(generated_line(S1K_SEED, **S1K_GENERATOR))


def test_instantiate_indexes_and_rebuilds_a_constant_number_of_times(
        monkeypatch):
    # (index walks, freezes, tree copies) of three calls on one fresh
    # machine: the first builds the tree it keeps and rewrites a copy;
    # the second and third build no tree and only copy.
    indexes = _count_calls(monkeypatch, MachineIndex, "__init__")
    freezes = _count_calls(monkeypatch, MachineIndex, "freeze")
    copies = _count_calls(monkeypatch, WorkingTree, "copy")
    for validate in (True, False):
        line = _fresh_s1k()
        assert len(MachineIndex(line.sc).states) == 1009
        counts = []
        for _ in range(3):
            indexes[0] = freezes[0] = copies[0] = 0
            result = instantiate(*line, validate=validate)
            assert len(result.trace) > 100
            counts.append((indexes[0], freezes[0], copies[0]))
        assert counts == [(1, 1, 1), (0, 1, 1), (0, 1, 1)], validate


def test_a_later_instantiation_copies_only_the_containers_it_writes(
        monkeypatch):
    # The first call on a machine, like the third, rewrites a copy of the
    # tree kept on it.  The copy shares the inner dicts and sets of
    # ``children``, ``owned`` and ``adjacent`` with the kept tree and
    # copies one only to write it: every container it no longer shares
    # holds other names than the kept one.  This line's configuration
    # deletes more than half the tree, so each call writes about a
    # quarter of the containers (309 of 1,282).
    line = _fresh_s1k()
    copy_tree = WorkingTree.copy
    pairs: list[tuple[WorkingTree, WorkingTree]] = []

    def recording_copy(self):
        new = copy_tree(self)
        pairs.append((self, new))
        return new

    monkeypatch.setattr(WorkingTree, "copy", recording_copy)
    inner = ("children", "owned", "adjacent")
    for call in range(3):
        pairs.clear()
        instantiate(*line)
        if call == 1:
            continue
        [(kept, edited)] = pairs
        total = sum(len(getattr(kept, m)) for m in inner)
        copied = {(m, k) for m in inner
                  for k, c in getattr(edited, m).items()
                  if c is not getattr(kept, m).get(k)}
        written = {(m, k) for m in inner
                   for k, c in getattr(edited, m).items()
                   if c != getattr(kept, m).get(k)}
        assert total > 1000
        assert copied == written, call
        assert 0 < len(copied) < total / 3, (call, len(copied), total)


def _closed_upwards(tree: WorkingTree, names) -> set[str]:
    """``names`` with every ancestor of each in ``tree``."""
    out = set()
    for name in names:
        while name is not None and name not in out:
            out.add(name)
            name = tree.parent.get(name)
    return out


def test_a_kept_call_freezes_only_the_composites_it_changed(monkeypatch):
    # The third call rewrites a copy of the kept tree.  A composite whose
    # children, initial marker or owned transitions (by name and
    # condition) differ from the kept tree's is changed; ``freeze``
    # rebuilds at most those and their ancestors, each once, and takes
    # every other composite from the holder of input facts.
    line = _fresh_s1k()
    for _ in range(2):
        instantiate(*line)
    pairs: list[tuple[WorkingTree, WorkingTree]] = []
    copy_tree = WorkingTree.copy

    def recording_copy(self):
        new = copy_tree(self)
        pairs.append((self, new))
        return new

    built: list[str] = []
    composite = MachineIndex._composite

    def recording(self, name, st):
        built.append(name)
        return composite(self, name, st)

    monkeypatch.setattr(WorkingTree, "copy", recording_copy)
    monkeypatch.setattr(MachineIndex, "_composite", recording)
    result = instantiate(*line)
    [(kept, edited)] = pairs

    def owned(tree, name):
        return [(n, tree.transitions[n].cond)
                for n in tree.owned.get(name, ())]

    changed = {name for name in edited.children
               if list(edited.children[name]) != list(kept.children[name])
               or edited.initial.get(name) != kept.initial.get(name)
               or owned(edited, name) != owned(kept, name)}
    surviving = len(MachineIndex(result.statechart).children)
    assert len(built) == len(set(built))
    assert set(built) <= _closed_upwards(edited, changed)
    # This configuration deletes more than half the tree, under most of
    # its composites: 105 of the 110 that survive are rebuilt.
    assert 0 < len(built) < surviving, (len(built), surviving)


def test_pruning_reads_only_transitions_with_an_in_state_atom(monkeypatch):
    # On the copies that every call edits, the first call's included,
    # pruning reads the condition of no transition but those whose
    # in-state atoms name a state, and of some of those.
    line = _fresh_s1k()
    cond = Transition.__dict__["cond"]
    read: list[Transition] = []
    prune = WorkingTree.prune_conditions

    def recording_prune(self, names):
        monkeypatch.setattr(Transition, "cond", property(
            lambda t: read.append(t) or cond.__get__(t)))
        try:
            return prune(self, names)
        finally:
            monkeypatch.setattr(Transition, "cond", cond)

    monkeypatch.setattr(WorkingTree, "prune_conditions", recording_prune)
    conditioned = sum(any(isinstance(a, InState) for a in t.cond.atoms)
                      for t in MachineIndex(line.sc).transitions.values())
    for _ in range(3):
        read.clear()
        result = instantiate(*line)
        assert any(step.rule == "prune_conditions" for step in result.trace)
        assert read and all(any(isinstance(a, InState)
                                for a in cond.__get__(t).atoms)
                            for t in read)
        assert len({t.name for t in read}) < conditioned


def _record_closures(monkeypatch) -> list[tuple[str | None, int]]:
    """Wraps the rewrite rules' ``reached`` by a recorder of one pair per
    call: the name it started from when it walked the ``children`` of a
    working tree built or copied meanwhile (compared by identity), else
    None, and how many names it reached.  Validation walks the feature
    model with the same function, bound in other modules, and a deletion
    closes each lone region's moves with it.  A call that starts from a
    region index closes a deletion's regions under waiting, not over
    moves, and is not recorded."""
    trees: list[WorkingTree] = []
    init, copy_tree = WorkingTree.__init__, WorkingTree.copy

    def recording_init(self, *args):
        init(self, *args)
        trees.append(self)

    def recording_copy(self):
        new = copy_tree(self)
        trees.append(new)
        return new

    orig = scpl.rewrite.reached
    calls: list[tuple[str | None, int]] = []

    def recording(start, successors):
        found = orig(start, successors)
        if isinstance(start, int):
            return found
        walked = any(successors is tree.children for tree in trees)
        calls.append((start if walked else None, len(found)))
        return found

    monkeypatch.setattr(WorkingTree, "__init__", recording_init)
    monkeypatch.setattr(WorkingTree, "copy", recording_copy)
    monkeypatch.setattr(scpl.rewrite, "reached", recording)
    return calls


def _record_tuple_searches(monkeypatch) -> list[list[int]]:
    """Wraps ``rewrite._tuple_search`` by a recorder of the regions each
    call searches jointly."""
    orig = scpl.rewrite._tuple_search
    searched: list[list[int]] = []

    def recording(region_indices, start, moves):
        searched.append(list(region_indices))
        return orig(region_indices, start, moves)

    monkeypatch.setattr(scpl.rewrite, "_tuple_search", recording)
    return searched


def test_a_state_deletion_walks_its_subtree_once(monkeypatch):
    # Once per machine object: the tree the first call keeps and the
    # copies every call edits share one holder of input facts, so the
    # first call walks the subtree of each state it deletes, once, and
    # later calls walk none.
    line = _fresh_s1k()
    calls = _record_closures(monkeypatch)
    walked = []
    for _ in range(3):
        calls.clear()
        result = instantiate(*line)
        deleted = sorted(step.subject for step in result.trace
                         if step.rule in ("delete_simple_state",
                                          "delete_or_state",
                                          "delete_and_state"))
        assert len(deleted) > 50
        walked.append(sorted(start for start, _ in calls if start))
    assert walked == [deleted, [], []]


def test_check_confluence_compares_trees_without_rebuilding(monkeypatch):
    line = _fresh_s1k()
    indexes = _count_calls(monkeypatch, MachineIndex, "__init__")
    freezes = _count_calls(monkeypatch, MachineIndex, "freeze")
    canonical = _count_function(monkeypatch, "canonicalize")
    report = check_confluence(*line, trials=10)
    assert report.trials == 10
    assert indexes[0] == 1
    assert freezes[0] == 0
    assert canonical[0] == 0
    # The check kept the tree it indexed, which the instantiation copies.
    instantiate(*line)
    assert indexes[0] == 1


def test_check_confluence_runs_one_order_per_layer_two_projection(
        monkeypatch):
    # One doomed state and four doomed transitions: 5! orders, all with
    # the one state as their layer-2 projection, so none needs to run.
    sc = StateChart(OrState(
        "Root", (SimpleState("A"), SimpleState("B"), SimpleState("S", True)),
        "A", tuple(Transition(f"t{i}", "A", "B", (f"e{i}",), optional=True)
                   for i in range(4))))
    fm, conf, imp = line_for(sc, {"S", "t0", "t1", "t2", "t3"})
    runs = _count_calls(monkeypatch, scpl.strategy, "_rewrite")
    report = check_confluence(fm, conf, sc, imp, exhaustive=True)
    assert report.confluent
    assert report.trials == 120
    assert runs[0] == 0


def test_check_confluence_runs_no_order_for_one_eligible_state(monkeypatch):
    # The doomed initial I has no way out, so every order fails in layer
    # 1; with I the only eligible state every order has one key, and the
    # check settles its verdict without running any.
    sc = StateChart(OrState(
        "Root", (SimpleState("I", True), SimpleState("A"), SimpleState("B")),
        "I", (Transition("ab", "A", "B", ("a",), optional=True),
              Transition("ba", "B", "A", ("b",), optional=True))))
    fm, conf, imp = line_for(sc, {"I", "ab", "ba"})
    line = (fm, conf, sc, imp)
    with pytest.raises(NoInitialError):
        instantiate(*line)
    expected = reference_confluence(*line, exhaustive=True)
    runs = _count_calls(monkeypatch, scpl.strategy, "_rewrite")
    report = check_confluence(*line, exhaustive=True)
    assert runs[0] == 0
    assert report == expected
    assert report.confluent and report.trials == 6


def test_check_confluence_draws_no_order_after_the_last_key(monkeypatch):
    # Eight doomed siblings, of which only S0 and S1 share a transition:
    # two keys, S0 before S1 and S1 before S0.  The first order with S1
    # ahead of S0 is the first one starting with S1, after the 7! orders
    # that start with S0; no order after it is drawn.
    doomed = [f"S{i}" for i in range(EXHAUSTIVE_CAP)]
    sc = StateChart(OrState(
        "Root", (SimpleState("A"), *(SimpleState(s, True) for s in doomed)),
        "A", (Transition("s01", "S0", "S1", ("a",)),)))
    fm, conf, imp = line_for(sc, doomed)
    expected = reference_confluence(fm, conf, sc, imp, exhaustive=True)
    drawn = [0]
    permutations = scpl.strategy.permutations

    def counted(base):
        for order in permutations(base):
            drawn[0] += 1
            yield order

    monkeypatch.setattr(scpl.strategy, "permutations", counted)
    runs = _count_calls(monkeypatch, scpl.strategy, "_rewrite")
    report = check_confluence(fm, conf, sc, imp, exhaustive=True)
    assert report == expected
    assert report.confluent and report.trials == 40_320
    assert runs[0] == 2
    assert drawn[0] == factorial(EXHAUSTIVE_CAP - 1) + 1


def _flat_line(states: int) -> StateChart:
    names = [f"S{i}" for i in range(states)]
    return StateChart(OrState("Root", tuple(map(SimpleState, names)),
                              names[0], tuple(
        Transition(f"t{i}", a, b, ("e",), Condition((InState(a),)), ("x",))
        for i, (a, b) in enumerate(zip(names, names[1:])))))


def test_the_machine_is_written_without_the_generic_writer(monkeypatch):
    # The generic writer runs once per value it writes, so writing the
    # machine through it costs several calls per state and transition; the
    # product-line writer spells the machine out itself.
    fm, _, imp = datasets.mobile_phone()
    calls = _count_calls(monkeypatch, scpl.formats, "_write_json")
    counts = []
    for states in (20, 2000):
        calls[0] = 0
        serialize_product_line(fm, _flat_line(states), imp)
        counts.append(calls[0])
    assert counts[0] == counts[1] > 0


def test_initial_repair_costs_each_hop_its_own_transitions(monkeypatch):
    # Scanning all of the parent's transitions per hop is quadratic: about
    # 1.2 s at 2,000 states, and well over a minute on this chain of 20,000
    # doomed states, which the marker crosses hop by hop, reading both
    # ends of 20,000 transitions per hop.  The repair reads each
    # transition's ends once in all, so a hop costs a few reads.  The
    # names sort in chain order, so each deletion finds its predecessor
    # gone and composes nothing.
    names = [f"S{i:05d}" for i in range(20_000)]
    sc = StateChart(OrState(
        "Root", tuple(SimpleState(n, optional=True) for n in names)
        + (SimpleState("E"),), names[0], tuple(
            Transition(f"t{i}", a, b, ("e",))
            for i, (a, b) in enumerate(zip(names, names[1:] + ["E"])))))
    fm = FeatureModel(frozenset({"R", "X"}), "R",
                      opt=frozenset({("R", frozenset({"X"}))}))
    imp = ImpMapping.from_dict({"X": ImpEntry(frozenset(names))})
    reads = [0]
    ends = {field: Transition.__dict__[field] for field in ("source", "target")}
    repair = WorkingTree.repair_initial

    def counting_repair(self, parent, pending):
        for field, slot in ends.items():
            monkeypatch.setattr(Transition, field, property(
                lambda t, slot=slot: reads.__setitem__(0, reads[0] + 1)
                or slot.__get__(t)))
        try:
            return repair(self, parent, pending)
        finally:
            for field, slot in ends.items():
                monkeypatch.setattr(Transition, field, slot)

    monkeypatch.setattr(WorkingTree, "repair_initial", counting_repair)
    result = instantiate(fm, Configuration(frozenset({"R"})), sc, imp)
    hops = len(names)
    assert reads[0] <= 4 * hops
    assert result.statechart.root.initial == "E"
    assert result.trace.steps[0].detail == f"initial {names[0]} -> E"


def test_composed_names_cost_their_own_length():
    # The chain of the test above, its names unpadded, so that they sort
    # out of chain order and the deletions compose runs of the chain, each
    # composition naming a longer run.  On a shared 2-CPU x86-64 machine,
    # splitting both names into their parts and joining them again took
    # 1.7-2.7 s; slicing each composed name's inner text out whole takes
    # 0.5-0.75 s.
    names = [f"S{i}" for i in range(8_000)]
    sc = StateChart(OrState(
        "Root", tuple(SimpleState(n, optional=True) for n in names)
        + (SimpleState("E"),), names[0], tuple(
            Transition(f"t{i}", a, b, ("e",))
            for i, (a, b) in enumerate(zip(names, names[1:] + ["E"])))))
    fm = FeatureModel(frozenset({"R", "X"}), "R",
                      opt=frozenset({("R", frozenset({"X"}))}))
    imp = ImpMapping.from_dict({"X": ImpEntry(frozenset(names))})
    start = time.perf_counter()
    result = instantiate(fm, Configuration(frozenset({"R"})), sc, imp)
    assert time.perf_counter() - start < 1.3
    assert result.statechart.root.initial == "E"
    composed = [t for step in result.trace for t in step.added_transitions]
    assert len(composed) > 7_000
    assert max(map(len, composed)) > 10_000


def test_parse_walks_the_machine_once(monkeypatch):
    indexes = _count_calls(monkeypatch, MachineIndex, "__init__")
    parse_product_line(MP_TEXT)
    assert indexes[0] == 1


def _one_path_line(initial: str, source: str, in_state: str) -> str:
    return json.dumps({
        "feature_model": {"funcs": ["F"], "root": "F"},
        "statechart": {"root": {
            "kind": "or", "name": "Root", "initial": initial,
            "substates": [{"kind": "simple", "name": "A"},
                          {"kind": "simple", "name": "B"}],
            "transitions": [{"name": "t", "source": source, "target": "B",
                             "trigger": ["e"],
                             "cond": [{"in": in_state}]}]}}})


@pytest.mark.parametrize("initial, source, in_state", [
    pytest.param("Root.A", "A", "B", id="initial"),
    pytest.param("A", "Root.A", "B", id="source"),
    pytest.param("A", "A", "Root.B", id="in-state"),
])
def test_parse_rebuilds_the_machine_only_to_resolve_a_path(
        initial, source, in_state, monkeypatch):
    freezes = _count_calls(monkeypatch, MachineIndex, "freeze")
    parse_product_line(MP_TEXT)
    parse_product_line(_one_path_line("A", "A", "B"))
    assert freezes[0] == 0
    _, sc, _ = parse_product_line(_one_path_line(initial, source, in_state))
    assert freezes[0] == 1
    assert sc.root.initial == "A"
    assert sc.root.transitions == (
        Transition("t", "A", "B", ("e",), Condition((InState("B"),))),)


def test_the_command_line_builds_its_parser_once(monkeypatch, tmp_path):
    line = tmp_path / "mp.pl.json"
    line.write_text(MP_TEXT, encoding="utf-8")
    argv = ["kernel", str(line)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
        parsers = _count_calls(monkeypatch, argparse.ArgumentParser,
                               "__init__")
        for _ in range(3):
            assert cli.main(argv) == 0
    assert parsers[0] == 0


def test_no_reference_cycles_are_left_behind(tmp_path):
    conf = datasets.mobile_phone_no_poly()
    line = generated_line(S1K_SEED, **S1K_GENERATOR)
    fm, sc, imp = parse_product_line(MP_TEXT)
    product = instantiate(fm, conf, sc, imp).statechart
    mp_path = tmp_path / "mp.pl.json"
    mp_path.write_text(MP_TEXT, encoding="utf-8")
    conf_path = tmp_path / "mp-no-poly.conf.json"
    conf_path.write_text(serialize_configuration(conf), encoding="utf-8")
    outputs = [str(tmp_path / name) for name in ("out.json", "out.dot",
                                                   "trace.json")]

    def quietly(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    runs = [("parse_product_line", lambda: parse_product_line(MP_TEXT)),
            ("instantiate", lambda: instantiate(fm, conf, sc, imp)),
            ("canonicalize", lambda: canonicalize(sc)),
            ("check_confluence", lambda: check_confluence(*line, trials=10)),
            ("generate_random_product_line",
             lambda: generate_random_product_line(S1K_SEED, **S1K_GENERATOR)),
            ("export_dot", lambda: export_dot(product)),
            ("cli validate", lambda: quietly(["validate", str(mp_path)])),
            ("cli validate --json",
             lambda: quietly(["validate", "--json", str(mp_path)])),
            ("cli kernel", lambda: quietly(["kernel", str(mp_path)])),
            ("cli instantiate",
             lambda: quietly(["instantiate", str(mp_path), str(conf_path),
                              "-o", outputs[0], "--dot", outputs[1],
                              "--trace", outputs[2]])),
            ("cli fuzz", lambda: quietly(["fuzz", "--count", "3"]))]
    for _, run in runs:  # first calls may fill caches
        run()
    gc.collect()
    gc.disable()
    try:
        for name, run in runs:
            run()
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_check_confluence_checks_well_formedness_once(monkeypatch):
    line = _fresh_s1k()
    calls = [0]
    orig = scpl.model.well_formed_violations

    def counting(idx):
        calls[0] += 1
        return orig(idx)

    for module in (scpl.model, scpl.strategy):
        monkeypatch.setattr(module, "well_formed_violations", counting)
    report = check_confluence(*line, trials=10)
    assert report.trials == 10
    assert calls[0] == 1
    # The verdict is kept on the machine, and the validated instantiation
    # checks its output over its edits alone.
    instantiate(*line)
    assert calls[0] == 1


def _rings(count: int, inner_exit: bool = True) -> StateChart:
    """An optional And-state A of ``count`` rings of 6 substates over three
    shared triggers, with no in-state atoms, entered from In and left from
    R0S3, unless ``inner_exit`` is false, and from A itself.  The triggers
    are drawn at random: a periodic pattern would keep the regions in
    lockstep, and even the product of all regions small."""
    rng = random.Random(3)
    regions = []
    for i in range(count):
        names = [f"R{i}S{j}" for j in range(6)]
        ring = tuple(Transition(f"r{i}t{j}", names[j], names[(j + 1) % 6],
                                (rng.choice("abc"),)) for j in range(6))
        regions.append(OrState(f"R{i}", tuple(SimpleState(n) for n in names),
                               names[0], ring))
    return StateChart(OrState(
        "Root",
        (SimpleState("In"), AndState("A", tuple(regions), True),
         SimpleState("OutX"), SimpleState("OutY")),
        "In",
        (Transition("enter", "In", "A", ("go",)),
         *[Transition("exitX", "R0S3", "OutX", ("x",))][:inner_exit],
         Transition("exitY", "A", "OutY", ("y",)))))


def test_and_state_deletion_searches_uncoupled_regions_apart(monkeypatch):
    # 12 rings: 6**12 (about 2.2e9) tuples, but 12 lone regions.  Only R0
    # holds an exit's source, so the deletion builds R0's moves alone and
    # closes R0 alone over them, with no tuple search at all.
    sc = _rings(12)
    searched = _record_tuple_searches(monkeypatch)
    calls = _record_closures(monkeypatch)
    built: list[list[int]] = []
    moves = WorkingTree._moves

    def recording_moves(self, elem, regions, coordinate, blocked, chosen):
        built.append(sorted(chosen))
        return moves(self, elem, regions, coordinate, blocked, chosen)

    monkeypatch.setattr(WorkingTree, "_moves", recording_moves)
    fm, conf, imp = line_for(sc, {"A"})
    result = instantiate(fm, conf, sc, imp)
    assert searched == []
    assert built == [[0]]
    closures = [size for walk, size in calls if not walk]
    assert len(closures) == 1 and 0 < closures[0] <= 6
    assert set(MachineIndex(result.statechart).transitions) == {
        "comp(enter,exitX)", "comp(enter,exitY)"}


class _ReadLog(dict):
    """A flat copy of a map that logs each key read by ``[]`` or ``get``."""

    def __init__(self, data, log: list):
        super().__init__(data)
        self.log = log

    def __getitem__(self, key):
        self.log.append(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.log.append(key)
        return super().get(key, default)


def _record_pairing_reads(monkeypatch) -> tuple[list, list]:
    """Wraps ``WorkingTree._compositions``, which pairs a deletion's
    entries and exits, so that it reads the tree's ``owned`` map, the
    transitions of each composite, through a ``_ReadLog``.  Returns the
    keys read, and one flag per pairing that had both entries and
    exits."""
    reads: list = []
    paired: list[bool] = []
    compositions = WorkingTree._compositions

    def recording(self, elem, entries, exits, blocked):
        paired.append(bool(entries and exits))
        kept = self.owned
        self.owned = _ReadLog(kept, reads)
        try:
            return compositions(self, elem, entries, exits, blocked)
        finally:
            self.owned = kept

    monkeypatch.setattr(WorkingTree, "_compositions", recording)
    return reads, paired


def test_a_deletion_left_from_the_state_itself_builds_no_region_move(
        monkeypatch):
    # Every exit leaves A itself, so every entry pairs with it whatever
    # the regions reach: the pairing reads no region's transitions.
    sc = _rings(12, inner_exit=False)
    reads, paired = _record_pairing_reads(monkeypatch)
    fm, conf, imp = line_for(sc, {"A"})
    result = instantiate(fm, conf, sc, imp)
    assert paired == [True]
    assert reads == []
    assert set(MachineIndex(result.statechart).transitions) == {
        "comp(enter,exitY)"}


def _coupled_pair() -> StateChart:
    """R1's move waits for R2's B2, which couples the two regions of the
    optional And-state P, entered from In and left from A2."""
    r1 = OrState("R1", (SimpleState("A1"), SimpleState("A2")), "A1",
                 (Transition("a", "A1", "A2", ("e",),
                             Condition((InState("B2"),))),))
    r2 = OrState("R2", (SimpleState("B1"), SimpleState("B2")), "B1",
                 (Transition("b", "B1", "B2", ("f",)),))
    return StateChart(OrState(
        "Root",
        (SimpleState("In"), SimpleState("Out"),
         AndState("P", (r1, r2), optional=True)),
        "In",
        (Transition("in", "In", "P", ("g",)),
         Transition("out", "A2", "Out", ("h",)))))


def test_instantiate_never_searches_coupled_regions(monkeypatch):
    # Layer 1 prunes R1's atom before P is deleted, so instantiate closes
    # each region alone and searches no tuples.  The public rule on the
    # unpruned machine searches R1 and R2 as one component, once, and
    # both pair the entry with the exit.
    sc = _coupled_pair()
    searched = _record_tuple_searches(monkeypatch)
    fm, conf, imp = line_for(sc, {"P"})
    result = instantiate(fm, conf, sc, imp)
    assert searched == []
    assert set(MachineIndex(result.statechart).transitions) == {
        "comp(in,out)"}
    out = delete_and_state("P", sc, PendingSet({"P"}))
    assert searched == [[0, 1]]
    assert set(MachineIndex(out).transitions) == {"comp(in,out)"}


@pytest.mark.parametrize("include_pending", [False, True])
def test_instantiate_searches_no_tuples(monkeypatch, include_pending):
    large = {"max_depth": 3, "max_substates": 6, "max_features": 12}
    lines = copy.deepcopy(
        [generated_line(seed) for seed in range(200)]
        + [generated_line(seed, **large)
           for seed in range(1_500_000, 1_500_050)])
    searched = _record_tuple_searches(monkeypatch)
    reads, paired = _record_pairing_reads(monkeypatch)
    for line in lines:
        with contextlib.suppress(ScplError):
            instantiate(*line, include_pending=include_pending)
    assert searched == []
    # No exit of these lines leaves a state from inside a region, so every
    # pairing, of which there are many, reads no region's transitions.
    assert sum(paired) > 50
    assert reads == []


def _coupled_rings(count: int, exit_from: str = "R0S3",
                   one_way: bool = False) -> StateChart:
    """An optional And-state A of ``count`` rings of 4 substates, each on
    its own trigger, plus one chord per ring waiting for the next ring's
    first substate, which couples all of them into one component of
    4**count tuples; entered from In and left from ``exit_from``.  With
    ``one_way``, ring 0 has no chord: the component is the same, but
    ring 0 waits on nothing, while ring 1 waits on every ring."""
    regions = []
    for i in range(count):
        names = [f"R{i}S{j}" for j in range(4)]
        ring = [Transition(f"r{i}t{j}", names[j], names[(j + 1) % 4],
                           (f"e{i}",)) for j in range(4)]
        if i or not one_way:
            ring.append(Transition(
                f"r{i}x", names[0], names[2], (f"f{i}",),
                Condition((InState(f"R{(i + 1) % count}S0"),))))
        regions.append(OrState(f"R{i}", tuple(SimpleState(n) for n in names),
                               names[0], tuple(ring)))
    return StateChart(OrState(
        "Root",
        (SimpleState("In"), AndState("A", tuple(regions), True),
         SimpleState("Out")),
        "In",
        (Transition("enter", "In", "A", ("go",)),
         Transition("exit", exit_from, "Out", ("x",)))))


def _starts(count: int) -> tuple[str, ...]:
    return tuple(f"R{i}S0" for i in range(count))


@pytest.mark.parametrize("run", [
    pytest.param(lambda sc: delete_and_state("A", sc, PendingSet({"A"})),
                 id="delete_and_state"),
    pytest.param(lambda sc: reachable_and("A", _starts(10), sc, PendingSet()),
                 id="reachable_and"),
])
def test_a_coupled_search_stops_at_the_tuple_budget(run):
    # 4**10 (about 1e6) tuples through one coupled component.
    sc = _coupled_rings(10)
    began = time.perf_counter()
    with pytest.raises(TooLargeError, match="10 regions"):
        run(sc)
    assert time.perf_counter() - began < 2


def test_a_coupled_component_no_exit_leaves_from_is_not_searched(
        monkeypatch):
    # The same 4**10 tuples, but the exit leaves A itself, so it pairs
    # with the entry whatever the regions reach: the deletion searches no
    # component and stays within the budget.
    sc = _coupled_rings(10, exit_from="A")
    searched = _record_tuple_searches(monkeypatch)
    out = delete_and_state("A", sc, PendingSet({"A"}))
    assert searched == []
    assert set(MachineIndex(out).transitions) == {"comp(enter,exit)"}


def test_a_deletion_searches_its_exit_region_with_what_it_waits_on(
        monkeypatch):
    # One component of 4**10 tuples, but the exit leaves from ring 0,
    # which waits on no ring: the deletion builds ring 0's moves alone and
    # closes them as a graph, with no tuple search.  Left from ring 1,
    # which waits on ring 2 and so on round to ring 0, it searches all 10
    # rings jointly and stops at the budget.
    sc = _coupled_rings(10, one_way=True)
    searched = _record_tuple_searches(monkeypatch)
    built: list[list[int]] = []
    moves = WorkingTree._moves

    def recording_moves(self, *args):
        got = moves(self, *args)
        built.append(sorted(got))
        return got

    monkeypatch.setattr(WorkingTree, "_moves", recording_moves)
    began = time.perf_counter()
    out = delete_and_state("A", sc, PendingSet({"A"}))
    assert time.perf_counter() - began < 0.5
    assert searched == []
    assert built == [[0]]
    assert set(MachineIndex(out).transitions) == {"comp(enter,exit)"}
    sc = _coupled_rings(10, exit_from="R1S3", one_way=True)
    began = time.perf_counter()
    with pytest.raises(TooLargeError, match="10 regions"):
        delete_and_state("A", sc, PendingSet({"A"}))
    assert time.perf_counter() - began < 2


def test_reachable_and_stops_at_the_tuple_budget_on_uncoupled_regions():
    # reachable_and searches every region jointly, coupled or not: 6**12
    # (about 2.2e9) tuples over the 12 rings.
    sc = _rings(12)
    began = time.perf_counter()
    with pytest.raises(TooLargeError, match="12 regions"):
        reachable_and("A", _starts(12), sc, PendingSet())
    assert time.perf_counter() - began < 2


def test_the_tuple_budget_bounds_the_tuples_reached(monkeypatch):
    # The coupled pair reaches (A1,B1), (A1,B2) and (A2,B2).
    sc = _coupled_pair()
    monkeypatch.setattr(scpl.rewrite, "TUPLE_BUDGET", 3)
    assert len(reachable_and("P", ("A1", "B1"), sc, PendingSet())) == 3
    monkeypatch.setattr(scpl.rewrite, "TUPLE_BUDGET", 2)
    with pytest.raises(TooLargeError):
        reachable_and("P", ("A1", "B1"), sc, PendingSet())


def test_valid_features_are_checked_without_sorting(monkeypatch):
    # An empty report has no order to fix; sorting every relation pair and
    # its children to order one costs some 20 sorts a line here.
    lines = [generated_line(seed) for seed in range(200)]
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return sorted(*args, **kwargs)

    monkeypatch.setattr(scpl.features, "sorted", counting, raising=False)
    for line in lines:
        assert scpl.features.validate_feature_model(line.fm) == []
        assert scpl.features.validate_configuration(line.fm, line.conf) == []
    assert calls[0] == 0
